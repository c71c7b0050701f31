#include "gloss/active_architecture.hpp"

#include "common/log.hpp"
#include "event/filter_parser.hpp"
#include "pipeline/components.hpp"

namespace aa::gloss {

namespace {

/// Builds the XML config of a service bundle: the input filter plus the
/// rule set.
xml::Element service_config(const ServiceSpec& spec) {
  xml::Element config("config");
  config.set_attribute("filter", spec.input.describe());
  for (const match::Rule& rule : spec.rules) {
    config.add_child(rule.to_xml());
  }
  return config;
}

// Periods the facade runs with where they differ from the subsystem
// defaults.
constexpr SimDuration kStoreHealingPeriod = duration::seconds(30);
constexpr SimDuration kAdvertPeriod = duration::seconds(20);

}  // namespace

ActiveArchitecture::ActiveArchitecture(Config config) : config_(config) {
  // --- Physical substrate: regional (transit-stub) wide-area network.
  sim::TransitStubTopology::Params tp;
  tp.regions = config_.regions;
  tp.seed = config_.seed;
  topo_ = std::make_shared<sim::TransitStubTopology>(config_.hosts, tp);
  net_ = std::make_unique<sim::Network>(sched_, topo_);

  // --- Event service: brokers on the first `brokers` hosts (one per
  // region first, then round-robin), connected as a tree.
  std::vector<sim::HostId> broker_hosts;
  for (std::size_t i = 0; i < config_.brokers && i < config_.hosts; ++i) {
    broker_hosts.push_back(static_cast<sim::HostId>(i));
  }
  const wire::WireCodec bus_codec =
      wire::codec_from_name(config_.codec).value_or(wire::WireCodec::kXml);
  bus_ = std::make_unique<pubsub::SienaNetwork>(*net_, broker_hosts, bus_codec);
  bus_->connect_tree();
  if (config_.batch_window_us >= 0) {
    // Frames carry the bus codec.
    const wire::Codec& frame_codec = wire::codec(bus_codec);
    net_->enable_batching(config_.batch_window_us, [&frame_codec](auto sizes) {
      return frame_codec.frame_size(sizes);
    });
  }

  // --- Overlay + storage on every host.
  overlay_ = std::make_unique<overlay::OverlayNetwork>(*net_);
  std::vector<sim::HostId> all_hosts;
  for (sim::HostId h = 0; h < config_.hosts; ++h) all_hosts.push_back(h);
  overlay_->build_ring(all_hosts);

  storage::ObjectStore::Params sp;
  sp.healing_period = kStoreHealingPeriod;
  store_ = std::make_unique<storage::ObjectStore>(*net_, *overlay_, sp);

  // --- Code push: thin servers everywhere, full capability grants.
  runtime_ = std::make_unique<bundle::ThinServerRuntime>(*net_, kAuthority);
  for (sim::HostId h : all_hosts) {
    runtime_->start_server(h, {"run.matchlet", "run.storelet", "run.pipeline"});
  }
  deployer_ = std::make_unique<bundle::BundleDeployer>(*net_, *runtime_);

  // --- Pipelines + installers.  Matchlets bind to their host's
  // knowledge replica (§1.2: the knowledge base is delivered to the
  // locations where matching occurs).
  pipelines_ = std::make_unique<pipeline::PipelineNetwork>(*net_);
  pipeline::register_pipeline_installers(*runtime_, *pipelines_, bus_.get());
  knowledge_ = std::make_unique<match::ReplicatedKnowledge>(*bus_, /*authority=*/0);
  match::register_matchlet_installer(*runtime_, *pipelines_,
                                     [this](sim::HostId host) -> match::KnowledgeBase& {
                                       return knowledge_->replica(host);
                                     });
  // The "service" installer: subscriber -> matchlet -> publisher chain.
  runtime_->register_installer(
      "service",
      [this](const bundle::CodeBundle& b, sim::HostId host) -> Result<std::function<void()>> {
        auto input = event::parse_filter(b.config().attribute("filter").value_or(""));
        if (!input.is_ok()) return input.status();

        auto matchlet = match::matchlet_from_bundle(b, knowledge_->replica(host));
        if (!matchlet.is_ok()) return matchlet.status();
        const auto in_ref = pipelines_->add(
            host, std::make_unique<pipeline::BusSubscriber>(b.name() + ".in", *bus_, host,
                                                            input.value()));
        const auto match_ref = pipelines_->add(host, std::move(matchlet).value());
        const auto out_ref = pipelines_->add(
            host, std::make_unique<pipeline::BusPublisher>(b.name() + ".out", *bus_));
        (void)pipelines_->connect(in_ref, match_ref);
        (void)pipelines_->connect(match_ref, out_ref);
        return std::function<void()>([this, in_ref, match_ref, out_ref]() {
          pipelines_->remove(in_ref);
          pipelines_->remove(match_ref);
          pipelines_->remove(out_ref);
        });
      });

  // --- Self-description and evolution.
  advertiser_ = std::make_unique<deploy::ResourceAdvertiser>(*net_, *bus_, kAdvertPeriod);
  for (sim::HostId h : all_hosts) {
    advertiser_->advertise(h, region_of(h), {"run.matchlet", "run.storelet", "run.pipeline"});
  }
  deploy::EvolutionEngine::Params ep;
  ep.engine_host = 0;
  evolution_ = std::make_unique<deploy::EvolutionEngine>(*net_, *bus_, *runtime_, *deployer_,
                                                         ep);

  // --- Observability: logger clock + the system-wide metrics hub.
  Logger::set_clock([this]() { return sched_.now(); });
  hub_.add_source([this](sim::MetricsRegistry& reg) {
    obs::export_stats(reg, "net", net_->stats());
    obs::export_stats(reg, "broker", bus_->total_broker_stats());
    obs::export_stats(reg, "pipeline", pipelines_->stats());
    obs::export_stats(reg, "store", store_->stats());
    obs::export_stats(reg, "deploy", runtime_->stats());
    obs::export_stats(reg, "evolution", evolution_->stats());
    reg.add("overlay.routed", overlay_->routed_messages());
    reg.add("overlay.undeliverable", overlay_->undeliverable());
    for (sim::HostId h = 0; h < config_.hosts; ++h) {
      if (const overlay::OverlayNode* n = overlay_->node_at(h)) {
        obs::export_stats(reg, "overlay", n->stats());
      }
      if (const storage::StoreNode* sn = store_->node(h)) {
        obs::export_stats(reg, "store.cache", sn->stats());
      }
    }
    reg.histogram("overlay.route_hops").merge(overlay_->route_hops());
    if (const obs::TraceCollector* tracer = net_->tracer()) {
      obs::export_trace_metrics(reg, "trace", *tracer);
    }
    if (const obs::Profiler* prof = net_->profiler()) {
      obs::export_profiler(reg, "sched", *prof);
    }
  });

  sched_.run_for(config_.settle_time);

  if (config_.profiling) net_->enable_profiling();
}

ActiveArchitecture::~ActiveArchitecture() { Logger::set_clock(nullptr); }

std::string ActiveArchitecture::region_of(sim::HostId host) const {
  return "r" + std::to_string(topo_->region_of(host));
}

std::vector<sim::HostId> ActiveArchitecture::hosts_in_region(const std::string& region) const {
  std::vector<sim::HostId> out;
  for (sim::HostId h = 0; h < config_.hosts; ++h) {
    if (region_of(h) == region) out.push_back(h);
  }
  return out;
}

std::map<sim::HostId, std::string> ActiveArchitecture::region_map() const {
  std::map<sim::HostId, std::string> out;
  for (sim::HostId h = 0; h < config_.hosts; ++h) out[h] = region_of(h);
  return out;
}

std::string ActiveArchitecture::deploy_service(const ServiceSpec& spec) {
  bundle::CodeBundle prototype(spec.name, "service", service_config(spec));
  prototype.require_capability("run.matchlet");

  deploy::PlacementConstraint constraint;
  constraint.id = "svc:" + spec.name + ":" + std::to_string(service_counter_++);
  constraint.kind = "service:" + spec.name;
  constraint.min_instances = spec.min_instances;
  constraint.region = spec.region;
  constraint.required_capabilities = {"run.matchlet"};
  constraint.prototype = std::move(prototype);
  evolution_->add_constraint(std::move(constraint));
  return "svc:" + spec.name + ":" + std::to_string(service_counter_ - 1);
}

std::uint64_t ActiveArchitecture::subscribe_user(sim::HostId device_host,
                                                 const event::Filter& filter,
                                                 pubsub::EventService::Deliver deliver) {
  return bus_->subscribe(device_host, filter, std::move(deliver));
}

void ActiveArchitecture::publish(sim::HostId host, const event::Event& e) {
  // Cheap handle copy; set_time clones the payload only when a
  // timestamp actually needs to be added.
  event::Event stamped = e;
  if (!stamped.has(event::time_atom())) stamped.set_time(sched_.now());
  bus_->publish(host, stamped);
}

match::FactId ActiveArchitecture::add_fact(match::Fact fact) {
  return knowledge_->add(std::move(fact));
}

void ActiveArchitecture::publish_handler(const std::string& event_type,
                                         const std::vector<match::Rule>& rules) {
  // A handler is a full service bundle (subscriber -> matchlet ->
  // publisher) whose input is the event type it handles; stored in the
  // code directory under the §5 convention.
  ServiceSpec spec;
  spec.name = event_type + "-handler";
  spec.input = event::Filter().where("type", event::Op::kEq, event_type);
  spec.rules = rules;
  bundle::CodeBundle handler(spec.name, "service", service_config(spec));
  handler.require_capability("run.matchlet");
  store_->put_named(0, match::DiscoveryService::handler_key(event_type),
                    to_bytes(handler.to_xml_string()));
}

void ActiveArchitecture::start_discovery(sim::HostId host) {
  if (discovery_ != nullptr) return;
  discovery_ = std::make_unique<match::DiscoveryService>(
      host, *store_, *deployer_,
      // "Handled": some host runs a matchlet named <type>-handler, or a
      // deployed service's matchlet already accepts the type.
      [this](const std::string& type) {
        for (sim::HostId h = 0; h < config_.hosts; ++h) {
          if (pipelines_->exists(pipeline::ComponentRef{h, type + "-handler"})) return true;
        }
        return false;
      },
      // Placement: the least-loaded live host advertising run.matchlet.
      [this](const std::string&) {
        const auto live = evolution_->view().live(sched_.now());
        sim::HostId best = 0;
        std::size_t best_load = SIZE_MAX;
        for (const auto& r : live) {
          if (!r.capabilities.contains("run.matchlet")) continue;
          const std::size_t load = runtime_->installed_names(r.host).size();
          if (load < best_load) {
            best = r.host;
            best_load = load;
          }
        }
        return best;
      });
  // Infrastructure event classes are not discoverable applications.
  for (const char* type : {"resource-advert", "resource-withdraw",
                           match::ReplicatedKnowledge::kUpdateEventType}) {
    discovery_->ignore_type(type);
  }
  // The discovery matchlet watches the entire event bus (§5: unknown
  // event types are routed to discovery matchlets).
  bus_->subscribe(host, event::Filter(),
                  [this](const event::Event& e) { discovery_->consider(e); });
}

}  // namespace aa::gloss
