#include "match/matchlet.hpp"

#include "pipeline/installers.hpp"

namespace aa::match {

Result<std::unique_ptr<Matchlet>> matchlet_from_bundle(const bundle::CodeBundle& b,
                                                       KnowledgeBase& kb) {
  auto matchlet = std::make_unique<Matchlet>(b.name(), kb);
  for (const xml::Element* rule_el : b.config().children_named("rule")) {
    auto rule = Rule::from_xml(*rule_el);
    if (!rule.is_ok()) return rule.status();
    matchlet->add_rule(std::move(rule).value());
  }
  return matchlet;
}

void register_matchlet_installer(bundle::ThinServerRuntime& runtime,
                                 pipeline::PipelineNetwork& pipelines,
                                 std::function<KnowledgeBase&(sim::HostId)> kb_for_host) {
  runtime.register_installer(
      "matchlet",
      [&pipelines, kb_for_host = std::move(kb_for_host)](const bundle::CodeBundle& b,
                                                         sim::HostId host)
          -> Result<std::function<void()>> {
        auto matchlet = matchlet_from_bundle(b, kb_for_host(host));
        if (!matchlet.is_ok()) return matchlet.status();
        return pipeline::finish_install(pipelines, host, b, std::move(matchlet).value());
      });
}

}  // namespace aa::match
