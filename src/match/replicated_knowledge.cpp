#include "match/replicated_knowledge.hpp"

#include <algorithm>

namespace aa::match {

ReplicatedKnowledge::ReplicatedKnowledge(pubsub::EventService& bus, sim::HostId authority_host)
    : bus_(bus), authority_(authority_host) {}

void ReplicatedKnowledge::publish_update(const char* op, FactId id, const Fact* fact) {
  event::Event update(kUpdateEventType);
  update.set("op", op);
  update.set("fact_id", static_cast<std::int64_t>(id));
  if (fact != nullptr) update.set("fact_xml", fact->to_xml_string());
  bus_.publish(authority_, update);
  ++stats_.updates_published;
}

FactId ReplicatedKnowledge::add(Fact fact) {
  const FactId id = master_.add(fact);
  publish_update("add", id, &fact);
  return id;
}

bool ReplicatedKnowledge::remove(FactId id) {
  if (!master_.remove(id)) return false;
  publish_update("remove", id, nullptr);
  return true;
}

bool ReplicatedKnowledge::update(FactId id, Fact fact) {
  if (!master_.update(id, fact)) return false;
  publish_update("add", id, &fact);  // replicas upsert on "add"
  return true;
}

void ReplicatedKnowledge::apply(KnowledgeBase& kb, const event::Event& update) {
  const auto op = update.get_string("op");
  const auto id = update.get_int("fact_id");
  if (!op || !id) return;
  if (*op == "remove") {
    kb.remove(static_cast<FactId>(*id));
    ++stats_.updates_applied;
    return;
  }
  const event::AttrValue* xml = update.get("fact_xml");
  if (xml == nullptr || !xml->is_string()) return;
  const auto fact_id = static_cast<FactId>(*id);
  auto it = std::find_if(parsed_.begin(), parsed_.end(), [&](const Parsed& p) {
    return p.id == fact_id && p.update.get("fact_xml")->str() == xml->str();
  });
  if (it == parsed_.end()) {
    auto fact = Fact::parse(xml->str());
    if (!fact.is_ok()) return;
    // An update that nothing but the memo holds any more reaches no
    // replica: a replica whose host was down never counts it.
    std::erase_if(parsed_, [](const Parsed& p) { return !p.update.payload_shared(); });
    it = parsed_.insert(parsed_.end(), Parsed{fact_id, update, std::move(fact).value()});
  }
  kb.insert(fact_id, it->fact);
  ++stats_.updates_applied;
  if (++it->applied >= replicas_.size()) parsed_.erase(it);
}

KnowledgeBase& ReplicatedKnowledge::replica(sim::HostId host) {
  auto it = replicas_.find(host);
  if (it != replicas_.end()) return *it->second;

  auto kb = std::make_unique<KnowledgeBase>();
  // State transfer: bring the new replica up to the authority's state,
  // preserving fact ids so later remove/update events land correctly.
  ++stats_.state_transfers;
  for (const auto& [id, fact] : master_.snapshot()) {
    kb->insert(id, *fact);
  }
  KnowledgeBase* raw = kb.get();
  bus_.subscribe(host,
                 event::Filter().where("type", event::Op::kEq, kUpdateEventType),
                 [this, raw](const event::Event& e) { apply(*raw, e); });
  it = replicas_.emplace(host, std::move(kb)).first;
  return *it->second;
}

}  // namespace aa::match
