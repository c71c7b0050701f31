// The facade: one object that assembles the whole active architecture.
//
// §5: "The overall system architecture consists of several P2P systems
// overlaid on each other in order to implement and support the global
// matching engine."  ActiveArchitecture builds exactly that stack over
// a simulated wide-area network:
//
//   * a transit-stub topology of hosts grouped into geographic regions;
//   * a Siena-like content-based event service on broker hosts (§4.1);
//   * a Plaxton/Pastry overlay + replicated object store with
//     promiscuous caching on all hosts (§4.5);
//   * Cingal thin servers + bundle deployer on all hosts (§4.3);
//   * the XML pipeline fabric and matchlet/pipeline installers (§4.2);
//   * a shared knowledge base for contextual facts (§1.1);
//   * resource advertisement, failure monitoring and the evolution
//     engine (§4.4, §4.6).
//
// The service API (§4.8/§4.9) lets an application express a pervasive
// contextual service declaratively — a subscription, a rule set, and
// placement requirements — and leaves deployment and evolution to the
// infrastructure.
#pragma once

#include <memory>

#include "bundle/deployer.hpp"
#include "deploy/evolution.hpp"
#include "deploy/policies.hpp"
#include "match/discovery.hpp"
#include "match/knowledge.hpp"
#include "match/matchlet.hpp"
#include "match/replicated_knowledge.hpp"
#include "obs/metrics_hub.hpp"
#include "pipeline/installers.hpp"
#include "pubsub/siena_network.hpp"
#include "storage/object_store.hpp"

namespace aa::gloss {

/// Declarative description of a pervasive contextual service (§4.9:
/// "the developer should ... concentrate on the fundamental aspects of
/// the new service — what information should be delivered to the user,
/// in what form, and in which context").
struct ServiceSpec {
  std::string name;
  /// Which bus events feed the service's matchlets.
  event::Filter input;
  /// The correlation logic.
  std::vector<match::Rule> rules;
  /// Placement: how many matchlet instances, and where.
  int min_instances = 1;
  std::string region;  // "" = anywhere
};

class ActiveArchitecture {
 public:
  struct Config {
    std::size_t hosts = 32;
    int regions = 4;
    std::size_t brokers = 8;
    std::uint64_t seed = 42;
    /// Virtual time the constructor runs forward to settle the overlay.
    SimDuration settle_time = duration::seconds(30);
    /// Opt-in scheduler profiling (Network::enable_profiling): wall-clock
    /// attribution exported under "sched.*" in snapshots and as Perfetto
    /// counter tracks.  Observation-only — digests are unchanged with it
    /// on.
    bool profiling = false;
    /// Wire codec every link of the event bus speaks: "xml"
    /// (interop/golden default) or "binary" (length-prefixed frames,
    /// DESIGN.md §12).
    std::string codec = "xml";
    /// Per-link send batching flush window in microseconds of virtual
    /// time (Network::enable_batching).  < 0 disables batching (the
    /// default); 0 coalesces sends staged at the same virtual instant
    /// into one frame flushed at the next scheduler tick.
    std::int64_t batch_window_us = -1;
  };

  explicit ActiveArchitecture(Config config);
  ~ActiveArchitecture();

  ActiveArchitecture(const ActiveArchitecture&) = delete;
  ActiveArchitecture& operator=(const ActiveArchitecture&) = delete;

  // --- Subsystem access ---
  sim::Scheduler& scheduler() { return sched_; }
  sim::Network& network() { return *net_; }
  pubsub::SienaNetwork& bus() { return *bus_; }
  overlay::OverlayNetwork& overlay() { return *overlay_; }
  storage::ObjectStore& store() { return *store_; }
  bundle::ThinServerRuntime& runtime() { return *runtime_; }
  bundle::BundleDeployer& deployer() { return *deployer_; }
  pipeline::PipelineNetwork& pipelines() { return *pipelines_; }
  /// The authoritative knowledge base (writes propagate to per-host
  /// replicas over the event bus; matchlets read their local replica).
  match::KnowledgeBase& knowledge() { return knowledge_->master(); }
  match::ReplicatedKnowledge& replicated_knowledge() { return *knowledge_; }
  deploy::EvolutionEngine& evolution() { return *evolution_; }
  deploy::ResourceAdvertiser& advertiser() { return *advertiser_; }

  const Config& config() const { return config_; }
  std::string region_of(sim::HostId host) const;
  /// Hosts in a region (by label "r<k>").
  std::vector<sim::HostId> hosts_in_region(const std::string& region) const;
  std::map<sim::HostId, std::string> region_map() const;

  // --- Service API (§4.8/§4.9) ---
  /// Deploys a contextual service: a placement constraint instantiating
  /// subscriber -> matchlet -> publisher chains on qualifying hosts.
  /// Returns the constraint id driving its deployment.
  std::string deploy_service(const ServiceSpec& spec);

  /// End-user device subscription to service output.
  std::uint64_t subscribe_user(sim::HostId device_host, const event::Filter& filter,
                               pubsub::EventService::Deliver deliver);

  /// Publishes an event from a device/sensor host onto the bus.
  void publish(sim::HostId host, const event::Event& e);

  /// Adds a contextual fact to the (shared) knowledge base.
  match::FactId add_fact(match::Fact fact);

  // --- Discovery (§5) ---
  /// Publishes a handler bundle for `event_type` into the code
  /// directory (object store, key hash("handler:"+type)).  Once
  /// published, events of that type showing up on the bus cause the
  /// discovery service to fetch and deploy the handler automatically.
  void publish_handler(const std::string& event_type, const std::vector<match::Rule>& rules);

  /// Starts the discovery service on `host`: it watches the whole event
  /// bus and deploys handlers for event types nothing handles yet.
  /// Fetched handlers are placed on the least-loaded advertised host.
  void start_discovery(sim::HostId host);
  match::DiscoveryService* discovery() { return discovery_.get(); }

  /// Runs virtual time forward.
  void run_for(SimDuration d) { sched_.run_for(d); }

  // --- Observability (obs/) ---
  /// Turns on causal tracing on the underlying network (no-op on the
  /// hot path until then; see sim/network.hpp).
  void enable_tracing(std::uint64_t sample_every = 1) {
    net_->enable_tracing(sample_every);
  }
  /// Combined Chrome/Perfetto export: trace spans (if tracing) plus
  /// profiler counter tracks (if profiling) in one trace-event JSON.
  void export_chrome_trace(std::ostream& out) const {
    net_->export_chrome_trace(out);
  }
  /// The hub snapshotting every subsystem's stats; extend it with
  /// add_source for application-level metrics.
  obs::MetricsHub& metrics_hub() { return hub_; }
  /// One namespaced point-in-time snapshot of the whole system
  /// ("net.*", "broker.*", "pipeline.*", "overlay.*", "store.*",
  /// "deploy.*", "evolution.*", plus "trace.*" when tracing is on).
  sim::MetricsRegistry metrics_snapshot() const { return hub_.snapshot(); }

  /// The authority secret used to seal bundles in this deployment.
  static constexpr const char* kAuthority = "gloss-authority";

 private:
  Config config_;
  sim::Scheduler sched_;
  std::shared_ptr<sim::TransitStubTopology> topo_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<pubsub::SienaNetwork> bus_;
  std::unique_ptr<overlay::OverlayNetwork> overlay_;
  std::unique_ptr<storage::ObjectStore> store_;
  std::unique_ptr<bundle::ThinServerRuntime> runtime_;
  std::unique_ptr<bundle::BundleDeployer> deployer_;
  std::unique_ptr<pipeline::PipelineNetwork> pipelines_;
  std::unique_ptr<match::ReplicatedKnowledge> knowledge_;
  std::unique_ptr<deploy::ResourceAdvertiser> advertiser_;
  std::unique_ptr<deploy::EvolutionEngine> evolution_;
  std::unique_ptr<match::DiscoveryService> discovery_;
  obs::MetricsHub hub_;
  int service_counter_ = 0;
};

}  // namespace aa::gloss
