// Matchlets: matching computations as pipeline components (§5).
//
// "Matchlets are structured as pipeline code that accepts events from
// the event distribution mechanism and performs matching on them.  Each
// matchlet writes its results onto the event bus.  Thus the primary API
// offered by the host to matchlets is an event delivery source and an
// event sink."
//
// A Matchlet wraps a MatchEngine as a pipeline Component: put() is the
// delivery source, emit() is the sink.  Compose with BusSubscriber /
// BusPublisher to plug it into the global event service.  The matchlet
// installer materialises matchlets from code bundles whose config holds
// the rule set as XML — which is exactly what discovery matchlets fetch
// from the storage architecture.
#pragma once

#include "bundle/thin_server.hpp"
#include "match/engine.hpp"
#include "pipeline/pipeline_network.hpp"

namespace aa::match {

class Matchlet final : public pipeline::Component {
 public:
  Matchlet(std::string name, KnowledgeBase& kb) : Component(std::move(name)), engine_(kb) {}

  void add_rule(Rule rule) { engine_.add_rule(std::move(rule)); }
  MatchEngine& engine() { return engine_; }
  const MatchEngine& engine() const { return engine_; }

 protected:
  void on_event(const event::Event& e) override {
    engine_.on_event(e, now(), [this](const event::Event& out) { emit(out); });
  }

 private:
  MatchEngine engine_;
};

/// A matchlet named after bundle `b`, bound to `kb`, whose rule set is
/// the bundle config's <rule> children; fails on the first rule that
/// does not parse.  Shared by the "matchlet" installer and the facade's
/// "service" installer.
Result<std::unique_ptr<Matchlet>> matchlet_from_bundle(const bundle::CodeBundle& b,
                                                       KnowledgeBase& kb);

/// Registers the "matchlet" bundle installer: the bundle config's
/// <rule> children become the matchlet's rule set; <connect> children
/// wire its sink (pipeline::finish_install, as for every pipe.*
/// component).  `kb_for_host` supplies the knowledge base a matchlet on
/// a given host binds to.
void register_matchlet_installer(bundle::ThinServerRuntime& runtime,
                                 pipeline::PipelineNetwork& pipelines,
                                 std::function<KnowledgeBase&(sim::HostId)> kb_for_host);

}  // namespace aa::match
