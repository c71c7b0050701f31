// Cingal thin servers (§3, §4.3): "Each thin server provides the
// necessary infrastructure for code deployment, authentication of
// bundles, a capability-based protection system and an object store."
//
// A ThinServerRuntime hosts one thin server per participating host:
//   * authentication — the bundle's seal must verify against a shared
//     authority secret;
//   * capability protection — every capability the bundle requires must
//     be granted to that host;
//   * installation — the bundle's component type is resolved against
//     the installer registry (the simulation's stand-in for executing
//     shipped code) inside a per-bundle "security domain" record;
//   * object store — installed bundles are retained by GUID, so code
//     can be re-fetched and redeployed (the discovery-matchlet path).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "bundle/bundle.hpp"
#include "sim/network.hpp"

namespace aa::bundle {

inline constexpr const char* kCingalProto = "cingal";

/// Outcome codes reported back to the pusher.
enum class DeployResult {
  kInstalled = 0,
  kBadSeal,
  kMissingCapability,
  kUnknownComponent,
  kInstallerFailed,
  kReplaced,  // same name re-deployed with newer version
};

const char* deploy_result_name(DeployResult r);

/// A running bundle instance on some thin server.
struct Installation {
  CodeBundle bundle;
  ObjectId bundle_id;
  SimTime installed_at = 0;
  /// Teardown hook provided by the installer; invoked on uninstall.
  std::function<void()> stop;
};

struct ThinServerStats {
  std::uint64_t received = 0;
  std::uint64_t installed = 0;
  std::uint64_t rejected_seal = 0;
  std::uint64_t rejected_capability = 0;
  std::uint64_t rejected_component = 0;
  std::uint64_t installer_failures = 0;
  std::uint64_t uninstalled = 0;
};

class ThinServerRuntime {
 public:
  /// An installer materialises a component from its bundle; it returns
  /// a teardown hook on success.
  using Installer =
      std::function<Result<std::function<void()>>(const CodeBundle&, sim::HostId host)>;

  ThinServerRuntime(sim::Network& net, std::string authority_secret);
  ~ThinServerRuntime();

  ThinServerRuntime(const ThinServerRuntime&) = delete;
  ThinServerRuntime& operator=(const ThinServerRuntime&) = delete;

  /// Brings up a thin server on `host` with the given capability grants.
  void start_server(sim::HostId host, std::set<std::string> capabilities);
  void stop_server(sim::HostId host);
  bool server_running(sim::HostId host) const { return servers_.contains(host); }

  void grant_capability(sim::HostId host, const std::string& cap);
  void revoke_capability(sim::HostId host, const std::string& cap);

  /// Registers the factory for a component type (global: all servers
  /// share one registry, modelling a common runtime image).
  void register_installer(const std::string& component_type, Installer installer);

  /// Installs a bundle that is already on `host` (local path, no
  /// network); used by the deployer's message handler and directly by
  /// tests.
  DeployResult install_local(sim::HostId host, const CodeBundle& bundle,
                             const Sha1Digest& seal);

  /// Uninstalls a named bundle; returns false if not installed.
  bool uninstall(sim::HostId host, const std::string& bundle_name);

  const Installation* installation(sim::HostId host, const std::string& bundle_name) const;
  std::vector<std::string> installed_names(sim::HostId host) const;
  /// Bundle retained in the server's local bundle store, by id.
  const CodeBundle* stored_bundle(sim::HostId host, const ObjectId& id) const;

  const ThinServerStats& stats() const { return stats_; }
  const std::string& authority_secret() const { return secret_; }

 private:
  struct Server {
    std::set<std::string> capabilities;
    std::map<std::string, Installation> installed;  // by bundle name
    std::map<ObjectId, CodeBundle> bundle_store;
  };

  sim::Network& net_;
  std::string secret_;
  std::map<sim::HostId, Server> servers_;
  std::map<std::string, Installer> installers_;
  ThinServerStats stats_;

  friend class BundleDeployer;
};

}  // namespace aa::bundle
