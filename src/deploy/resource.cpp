#include "deploy/resource.hpp"

#include <string_view>

namespace aa::deploy {

namespace {
constexpr const char* kMonPing = "mon.ping";
constexpr const char* kMonPong = "mon.pong";

struct PingMsg {
  std::uint64_t seq = 0;
  sim::HostId reply_to = sim::kNoHost;
  bool is_pong = false;
};

std::string caps_to_csv(const std::set<std::string>& caps) {
  std::string out;
  for (const auto& c : caps) {
    if (!out.empty()) out += ',';
    out += c;
  }
  return out;
}

/// The string attribute `name` of `e`, read in place ("" when it is
/// absent or not a string).
std::string_view text_of(const event::Event& e, std::string_view name) {
  const event::AttrValue* v = e.get(name);
  return v != nullptr && v->is_string() ? std::string_view(v->str()) : std::string_view();
}

/// Calls `fn` on each non-empty comma-separated item of `csv`, in order.
template <typename Fn>
void for_each_csv_item(std::string_view csv, Fn&& fn) {
  while (!csv.empty()) {
    const auto comma = csv.find(',');
    const std::string_view item = csv.substr(0, comma);
    if (!item.empty()) fn(item);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
}

/// Sets `caps` to the items of `csv`, rebuilding it only when they are
/// not already exactly its members in order (what caps_to_csv wrote).
void assign_caps(std::set<std::string>& caps, std::string_view csv) {
  auto next = caps.begin();
  bool same = true;
  for_each_csv_item(csv, [&](std::string_view item) {
    same = same && next != caps.end() && *next == item;
    if (same) ++next;
  });
  if (same && next == caps.end()) return;
  caps.clear();
  for_each_csv_item(csv, [&](std::string_view item) { caps.emplace(item); });
}
}  // namespace

ResourceAdvertiser::ResourceAdvertiser(sim::Network& net, pubsub::EventService& bus,
                                       SimDuration period)
    : net_(net), bus_(bus), period_(period) {
  task_ = net_.scheduler().every(period_, [this]() { tick(); });
}

ResourceAdvertiser::~ResourceAdvertiser() {
  if (task_ != sim::kInvalidTask) net_.scheduler().cancel(task_);
}

event::Event ResourceAdvertiser::advert_event(const HostResources& r) {
  event::Event e("resource-advert");
  e.set("host", static_cast<std::int64_t>(r.host));
  e.set("region", r.region);
  e.set("capabilities", caps_to_csv(r.capabilities));
  e.set("storage_mb", r.storage_mb);
  return e;
}

void ResourceAdvertiser::advertise(sim::HostId host, std::string region,
                                   std::set<std::string> capabilities, double storage_mb) {
  HostResources r;
  r.host = host;
  r.region = std::move(region);
  r.capabilities = std::move(capabilities);
  r.storage_mb = storage_mb;
  hosts_[host] = r;
  // Advertised hosts answer monitoring pings (§4.4's monitoring
  // components need a responder on every participating node).
  net_.register_handler(host, kMonPing, [this, host](const sim::Packet& p) {
    const auto* msg = sim::packet_body<PingMsg>(p);
    if (msg == nullptr) return;
    net_.send(host, msg->reply_to, kMonPong, PingMsg{msg->seq, host, true}, 16);
  });
  // First advert goes out immediately.
  if (net_.host_up(host)) {
    bus_.publish(host, advert_event(r).set_time(net_.scheduler().now()));
  }
}

void ResourceAdvertiser::withdraw(sim::HostId host) {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) return;
  event::Event e("resource-withdraw");
  e.set("host", static_cast<std::int64_t>(host));
  e.set("reason", "graceful");
  e.set_time(net_.scheduler().now());
  bus_.publish(host, e);
  hosts_.erase(it);
}

void ResourceAdvertiser::stop(sim::HostId host) { hosts_.erase(host); }

void ResourceAdvertiser::tick() {
  for (auto& [host, r] : hosts_) {
    if (!net_.host_up(host)) continue;  // crashed hosts stop advertising
    bus_.publish(host, advert_event(r).set_time(net_.scheduler().now()));
  }
}

FailureMonitor::FailureMonitor(sim::Network& net, pubsub::EventService& bus,
                               sim::HostId monitor_host, SimDuration probe_period,
                               SimDuration pong_timeout)
    : net_(net), bus_(bus), host_(monitor_host), pong_timeout_(pong_timeout) {
  // Learn the population from advert traffic.
  sub_id_ = bus_.subscribe(host_, event::Filter().where("type", event::Op::kEq,
                                                        "resource-advert"),
                           [this](const event::Event& e) {
                             const auto h = e.get_int("host");
                             if (h) watched_.insert(static_cast<sim::HostId>(*h));
                           });
  net_.register_handler(host_, kMonPong, [this](const sim::Packet& p) { on_message(p); });
  task_ = net_.scheduler().every(probe_period, [this]() { probe(); });
}

FailureMonitor::~FailureMonitor() {
  if (task_ != sim::kInvalidTask) net_.scheduler().cancel(task_);
  net_.unregister_handler(host_, kMonPong);
  bus_.unsubscribe(host_, sub_id_);
}

void FailureMonitor::probe() {
  for (sim::HostId target : watched_) {
    if (outstanding_.contains(target)) continue;  // probe already in flight
    const std::uint64_t seq = next_seq_++;
    outstanding_[target] = seq;
    net_.send(host_, target, kMonPing, PingMsg{seq, host_, false}, 16);
    net_.scheduler().after(pong_timeout_, [this, target, seq]() {
      auto it = outstanding_.find(target);
      if (it == outstanding_.end() || it->second != seq) return;  // pong arrived
      outstanding_.erase(it);
      watched_.erase(target);
      ++failures_;
      // Publish the withdrawal on the victim's behalf.
      event::Event e("resource-withdraw");
      e.set("host", static_cast<std::int64_t>(target));
      e.set("reason", "monitor-detected");
      bus_.publish(host_, e);
    });
  }
}

void FailureMonitor::on_message(const sim::Packet& packet) {
  const auto* msg = sim::packet_body<PingMsg>(packet);
  if (msg == nullptr || !msg->is_pong) return;
  auto it = outstanding_.find(packet.src);
  if (it != outstanding_.end() && it->second == msg->seq) outstanding_.erase(it);
}

ResourceView::ResourceView(pubsub::EventService& bus, sim::HostId view_host, SimDuration ttl)
    : ttl_(ttl) {
  bus.subscribe(view_host, event::Filter().where("type", event::Op::kEq, "resource-advert"),
                [this](const event::Event& e) {
                  const auto host = e.get_int("host");
                  if (!host) return;
                  HostResources& r = hosts_[static_cast<sim::HostId>(*host)];
                  r.host = static_cast<sim::HostId>(*host);
                  r.region = text_of(e, "region");
                  assign_caps(r.capabilities, text_of(e, "capabilities"));
                  r.storage_mb = e.get_real("storage_mb").value_or(0);
                  r.last_advert = e.time();
                  r.withdrawn = false;
                });
  bus.subscribe(view_host, event::Filter().where("type", event::Op::kEq, "resource-withdraw"),
                [this](const event::Event& e) {
                  const auto host = e.get_int("host");
                  if (!host) return;
                  auto it = hosts_.find(static_cast<sim::HostId>(*host));
                  if (it != hosts_.end()) it->second.withdrawn = true;
                  if (on_withdraw) on_withdraw(static_cast<sim::HostId>(*host));
                });
}

std::vector<const HostResources*> ResourceView::live(SimTime now) const {
  std::vector<const HostResources*> out;
  for (const auto& [host, r] : hosts_) {
    if (r.withdrawn) continue;
    if (ttl_ > 0 && now - r.last_advert > ttl_) continue;
    out.push_back(&r);
  }
  return out;
}

std::vector<const HostResources*> ResourceView::live_in_region(
    SimTime now, const std::string& region) const {
  auto out = live(now);
  std::erase_if(out, [&](const HostResources* r) { return r->region != region; });
  return out;
}

}  // namespace aa::deploy
