// Network-facing side of code push: serialises bundles into Cingal
// packets, ships them to remote thin servers, and reports the outcome
// back to the pusher (§4.3's "ongoing deployment and redeployment of
// individual pipeline components", driven by the evolution engine).
#pragma once

#include <functional>
#include <map>

#include "bundle/thin_server.hpp"

namespace aa::bundle {

class BundleDeployer {
 public:
  BundleDeployer(sim::Network& net, ThinServerRuntime& runtime);
  ~BundleDeployer();

  BundleDeployer(const BundleDeployer&) = delete;
  BundleDeployer& operator=(const BundleDeployer&) = delete;

  using DeployCallback = std::function<void(Result<DeployResult>)>;

  /// Seals `bundle` with the runtime's authority secret and pushes it
  /// from `from` to the thin server on `target`.  The callback runs at
  /// the pusher once the ack returns, or with kTimeout when none has
  /// after 10 s of virtual time.
  void push(sim::HostId from, sim::HostId target, const CodeBundle& bundle,
            DeployCallback done = nullptr);

  /// Pushes a bundle sealed by an *impostor* secret — used by tests and
  /// the security example to show rejection.
  void push_with_seal(sim::HostId from, sim::HostId target, const CodeBundle& bundle,
                      const Sha1Digest& seal, DeployCallback done = nullptr);

 private:
  void on_message(sim::HostId host, const sim::Packet& packet);
  void ensure_handler(sim::HostId host);

  sim::Network& net_;
  ThinServerRuntime& runtime_;
  struct Pending {
    DeployCallback done;
    sim::TaskId timeout = sim::kInvalidTask;
  };
  std::map<std::uint64_t, Pending> pending_;
  std::map<sim::HostId, bool> handlers_;
  std::uint64_t next_id_ = 1;
};

}  // namespace aa::bundle
