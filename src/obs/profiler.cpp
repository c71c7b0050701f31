#include "obs/profiler.hpp"

#include <chrono>
#include <ostream>

namespace aa::obs {

std::string_view bucket_name(ProfileBucket b) {
  switch (b) {
    case ProfileBucket::kBrokerRoute: return "broker_route";
    case ProfileBucket::kBrokerMatch: return "broker_match";
    case ProfileBucket::kStore: return "store";
    case ProfileBucket::kOverlay: return "overlay";
    case ProfileBucket::kTransport: return "transport";
    case ProfileBucket::kPipeline: return "pipeline";
    case ProfileBucket::kDeploy: return "deploy";
    case ProfileBucket::kClient: return "client";
    case ProfileBucket::kOther: return "other";
  }
  return "other";
}

ProfileBucket bucket_for(std::string_view component, std::string_view action) {
  if (component == "broker") {
    return action == "match" ? ProfileBucket::kBrokerMatch : ProfileBucket::kBrokerRoute;
  }
  if (component == "store") return ProfileBucket::kStore;
  if (component == "overlay") return ProfileBucket::kOverlay;
  if (component == "transport" || component == "net") return ProfileBucket::kTransport;
  if (component == "pipeline") return ProfileBucket::kPipeline;
  if (component == "deploy" || component == "evolution") return ProfileBucket::kDeploy;
  if (component == "client") return ProfileBucket::kClient;
  return ProfileBucket::kOther;
}

std::uint64_t Profiler::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Profiler::Scope::Scope(Profiler* p, ProfileBucket bucket) : p_(p), bucket_(bucket) {
  if (p_ == nullptr) return;
  const std::uint64_t now = now_ns();
  parent_ = p_->active_;
  if (parent_ != nullptr) {
    // Pause the parent: bank its elapsed self time before we start.
    p_->c_.bucket_ns[static_cast<std::size_t>(parent_->bucket_)] += now - parent_->mark_ns_;
  }
  mark_ns_ = now;
  p_->active_ = this;
}

Profiler::Scope::~Scope() {
  if (p_ == nullptr) return;
  const std::uint64_t now = now_ns();
  p_->c_.bucket_ns[static_cast<std::size_t>(bucket_)] += now - mark_ns_;
  p_->active_ = parent_;
  if (parent_ != nullptr) parent_->mark_ns_ = now;  // resume
}

void Profiler::sample(SimTime t) {
  samples_.push_back(Sample{t, c_});
  while (samples_.size() > retention_) samples_.pop_front();
}

void Profiler::reset() {
  c_ = SlotCounters{};
  samples_.clear();
}

void Profiler::write_chrome_events(std::ostream& out, bool& first) const {
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
  };
  // Track naming: one synthetic "scheduler" process with one thread row.
  comma();
  out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kChromePid
      << ",\"args\":{\"name\":\"scheduler\"}}";
  comma();
  out << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kChromePid
      << ",\"tid\":0,\"args\":{\"name\":\"scheduler\"}}";
  for (const Sample& s : samples_) {
    const SlotCounters& c = s.counters;
    comma();
    out << "\n{\"name\":\"sched\",\"ph\":\"C\",\"ts\":" << s.t << ",\"pid\":" << kChromePid
        << ",\"tid\":0,\"args\":{\"busy_us\":" << c.busy_ns / 1000 << ",\"tasks\":" << c.tasks
        << "}}";
    comma();
    out << "\n{\"name\":\"buckets\",\"ph\":\"C\",\"ts\":" << s.t << ",\"pid\":" << kChromePid
        << ",\"tid\":0,\"args\":{";
    for (std::size_t b = 0; b < kProfileBucketCount; ++b) {
      if (b != 0) out << ",";
      out << "\"" << bucket_name(static_cast<ProfileBucket>(b)) << "_us\":" << c.bucket_ns[b] / 1000;
    }
    out << "}}";
  }
}

}  // namespace aa::obs
