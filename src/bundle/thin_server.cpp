#include "bundle/thin_server.hpp"

namespace aa::bundle {

const char* deploy_result_name(DeployResult r) {
  switch (r) {
    case DeployResult::kInstalled: return "installed";
    case DeployResult::kBadSeal: return "bad-seal";
    case DeployResult::kMissingCapability: return "missing-capability";
    case DeployResult::kUnknownComponent: return "unknown-component";
    case DeployResult::kInstallerFailed: return "installer-failed";
    case DeployResult::kReplaced: return "replaced";
  }
  return "?";
}

ThinServerRuntime::ThinServerRuntime(sim::Network& net, std::string authority_secret)
    : net_(net), secret_(std::move(authority_secret)) {}

ThinServerRuntime::~ThinServerRuntime() = default;

void ThinServerRuntime::start_server(sim::HostId host, std::set<std::string> capabilities) {
  servers_[host].capabilities = std::move(capabilities);
}

void ThinServerRuntime::stop_server(sim::HostId host) {
  auto it = servers_.find(host);
  if (it == servers_.end()) return;
  for (auto& [name, inst] : it->second.installed) {
    if (inst.stop) inst.stop();
    ++stats_.uninstalled;
  }
  servers_.erase(it);
}

void ThinServerRuntime::grant_capability(sim::HostId host, const std::string& cap) {
  servers_[host].capabilities.insert(cap);
}

void ThinServerRuntime::revoke_capability(sim::HostId host, const std::string& cap) {
  auto it = servers_.find(host);
  if (it != servers_.end()) it->second.capabilities.erase(cap);
}

void ThinServerRuntime::register_installer(const std::string& component_type,
                                           Installer installer) {
  installers_[component_type] = std::move(installer);
}

DeployResult ThinServerRuntime::install_local(sim::HostId host, const CodeBundle& bundle,
                                              const Sha1Digest& seal) {
  ++stats_.received;
  sim::Network::SpanScope span(net_, host, "deploy", "install");
  if (span.active()) {
    span.annotate(bundle.name() + "@v" + std::to_string(bundle.version()));
  }
  auto server_it = servers_.find(host);
  if (server_it == servers_.end()) {
    ++stats_.rejected_component;
    return DeployResult::kUnknownComponent;  // no runtime on this host
  }
  Server& server = server_it->second;

  // 1. Authentication: the seal must be the authority's keyed hash of
  //    this exact bundle content.
  if (bundle.seal(secret_) != seal) {
    ++stats_.rejected_seal;
    return DeployResult::kBadSeal;
  }

  // 2. Capability protection.
  for (const std::string& cap : bundle.required_capabilities()) {
    if (!server.capabilities.contains(cap)) {
      ++stats_.rejected_capability;
      return DeployResult::kMissingCapability;
    }
  }

  // 3. Resolve the component factory.
  auto installer_it = installers_.find(bundle.component_type());
  if (installer_it == installers_.end()) {
    ++stats_.rejected_component;
    return DeployResult::kUnknownComponent;
  }

  // 4. Version-aware replacement: a newer bundle with the same name
  //    evolves the running component in place (§4.3's "incremental
  //    evolution of the components").
  bool replaced = false;
  auto existing = server.installed.find(bundle.name());
  if (existing != server.installed.end()) {
    if (existing->second.bundle.version() >= bundle.version()) {
      // Stale or duplicate push: keep the newer installation, report
      // success (idempotent deploys).
      return DeployResult::kInstalled;
    }
    if (existing->second.stop) existing->second.stop();
    server.installed.erase(existing);
    replaced = true;
  }

  // 5. Execute inside the security domain.
  auto teardown = installer_it->second(bundle, host);
  if (!teardown.is_ok()) {
    ++stats_.installer_failures;
    return DeployResult::kInstallerFailed;
  }

  Installation inst;
  inst.bundle = bundle;
  inst.bundle_id = bundle.id();
  inst.installed_at = net_.scheduler().now();
  inst.stop = std::move(teardown).value();
  server.bundle_store.emplace(inst.bundle_id, bundle);
  server.installed.emplace(bundle.name(), std::move(inst));
  ++stats_.installed;
  return replaced ? DeployResult::kReplaced : DeployResult::kInstalled;
}

bool ThinServerRuntime::uninstall(sim::HostId host, const std::string& bundle_name) {
  auto server_it = servers_.find(host);
  if (server_it == servers_.end()) return false;
  auto it = server_it->second.installed.find(bundle_name);
  if (it == server_it->second.installed.end()) return false;
  if (it->second.stop) it->second.stop();
  server_it->second.installed.erase(it);
  ++stats_.uninstalled;
  return true;
}

const Installation* ThinServerRuntime::installation(sim::HostId host,
                                                    const std::string& bundle_name) const {
  auto server_it = servers_.find(host);
  if (server_it == servers_.end()) return nullptr;
  auto it = server_it->second.installed.find(bundle_name);
  return it == server_it->second.installed.end() ? nullptr : &it->second;
}

std::vector<std::string> ThinServerRuntime::installed_names(sim::HostId host) const {
  std::vector<std::string> out;
  auto server_it = servers_.find(host);
  if (server_it == servers_.end()) return out;
  for (const auto& [name, inst] : server_it->second.installed) out.push_back(name);
  return out;
}

const CodeBundle* ThinServerRuntime::stored_bundle(sim::HostId host, const ObjectId& id) const {
  auto server_it = servers_.find(host);
  if (server_it == servers_.end()) return nullptr;
  auto it = server_it->second.bundle_store.find(id);
  return it == server_it->second.bundle_store.end() ? nullptr : &it->second;
}

}  // namespace aa::bundle
