#include "bundle/deployer.hpp"

namespace aa::bundle {

namespace {
struct PushMsg {
  std::uint64_t request_id = 0;
  std::string bundle_xml;
  Sha1Digest seal{};
  sim::HostId reply_to = sim::kNoHost;
};
struct AckMsg {
  std::uint64_t request_id = 0;
  DeployResult result = DeployResult::kInstalled;
};
// How long a pusher waits for the ack.
constexpr SimDuration kAckTimeout = duration::seconds(10);
}  // namespace

BundleDeployer::BundleDeployer(sim::Network& net, ThinServerRuntime& runtime)
    : net_(net), runtime_(runtime) {}

BundleDeployer::~BundleDeployer() {
  for (const auto& [h, on] : handlers_) {
    if (on) net_.unregister_handler(h, kCingalProto);
  }
}

void BundleDeployer::ensure_handler(sim::HostId host) {
  if (handlers_[host]) return;
  handlers_[host] = true;
  net_.register_handler(host, kCingalProto,
                        [this, host](const sim::Packet& p) { on_message(host, p); });
}

void BundleDeployer::push(sim::HostId from, sim::HostId target, const CodeBundle& bundle,
                          DeployCallback done) {
  push_with_seal(from, target, bundle, bundle.seal(runtime_.authority_secret()),
                 std::move(done));
}

void BundleDeployer::push_with_seal(sim::HostId from, sim::HostId target,
                                    const CodeBundle& bundle, const Sha1Digest& seal,
                                    DeployCallback done) {
  ensure_handler(from);
  ensure_handler(target);
  const std::uint64_t request_id = next_id_++;
  if (done) {
    Pending pending;
    pending.timeout = net_.scheduler().after(kAckTimeout, [this, request_id]() {
      auto it = pending_.find(request_id);
      if (it == pending_.end()) return;
      it->second.done(Status(Code::kTimeout, "bundle push timed out"));
      pending_.erase(it);
    });
    pending.done = std::move(done);
    pending_.emplace(request_id, std::move(pending));
  }
  PushMsg msg;
  msg.request_id = request_id;
  msg.bundle_xml = bundle.to_xml_string();
  msg.seal = seal;
  msg.reply_to = from;
  // The XML carries the payload hex-encoded, so its length prices it.
  const std::size_t size = msg.bundle_xml.size() + 32;
  net_.send(from, target, kCingalProto, std::move(msg), size);
}

void BundleDeployer::on_message(sim::HostId host, const sim::Packet& packet) {
  if (const auto* push = sim::packet_body<PushMsg>(packet)) {
    auto bundle = CodeBundle::parse(push->bundle_xml);
    DeployResult result = DeployResult::kBadSeal;
    if (bundle.is_ok()) {
      result = runtime_.install_local(host, bundle.value(), push->seal);
    }
    net_.send(host, push->reply_to, kCingalProto, AckMsg{push->request_id, result}, 24);
  } else if (const auto* ack = sim::packet_body<AckMsg>(packet)) {
    auto it = pending_.find(ack->request_id);
    if (it == pending_.end()) return;
    net_.scheduler().cancel(it->second.timeout);
    it->second.done(Result<DeployResult>(ack->result));
    pending_.erase(it);
  }
}

}  // namespace aa::bundle
