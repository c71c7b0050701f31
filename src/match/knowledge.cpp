#include "match/knowledge.hpp"

namespace aa::match {

FactId KnowledgeBase::add(Fact fact) {
  const FactId id = next_id_++;
  index_fact(id, fact);
  facts_.emplace(id, std::move(fact));
  return id;
}

void KnowledgeBase::insert(FactId id, Fact fact) {
  auto it = facts_.find(id);
  if (it != facts_.end()) {
    unindex_fact(id, it->second);
    facts_.erase(it);
  }
  index_fact(id, fact);
  facts_.emplace(id, std::move(fact));
  if (id >= next_id_) next_id_ = id + 1;
}

bool KnowledgeBase::remove(FactId id) {
  auto it = facts_.find(id);
  if (it == facts_.end()) return false;
  unindex_fact(id, it->second);
  facts_.erase(it);
  return true;
}

bool KnowledgeBase::update(FactId id, Fact fact) {
  auto it = facts_.find(id);
  if (it == facts_.end()) return false;
  unindex_fact(id, it->second);
  index_fact(id, fact);
  it->second = std::move(fact);
  return true;
}

const Fact* KnowledgeBase::fact(FactId id) const {
  auto it = facts_.find(id);
  return it == facts_.end() ? nullptr : &it->second;
}

void KnowledgeBase::index_fact(FactId id, const Fact& fact) {
  for (const auto& [atom, value] : fact.attributes()) {
    if (value.is_string()) index_[{atom, value.str()}].insert(id);
  }
}

void KnowledgeBase::unindex_fact(FactId id, const Fact& fact) {
  for (const auto& [atom, value] : fact.attributes()) {
    if (!value.is_string()) continue;
    auto it = index_.find({atom, value.str()});
    if (it != index_.end()) {
      it->second.erase(id);
      if (it->second.empty()) index_.erase(it);
    }
  }
}

std::vector<std::pair<FactId, const Fact*>> KnowledgeBase::snapshot() const {
  std::vector<std::pair<FactId, const Fact*>> out;
  out.reserve(facts_.size());
  for (const auto& [id, f] : facts_) out.emplace_back(id, &f);
  return out;
}

std::vector<const Fact*> KnowledgeBase::query(const event::Filter& filter) const {
  std::vector<const Fact*> out;
  query(filter, out);
  return out;
}

void KnowledgeBase::query(const event::Filter& filter, std::vector<const Fact*>& out) const {
  out.clear();
  // Choose the most selective string-equality constraint as the index
  // probe.
  const std::set<FactId>* candidates = nullptr;
  for (const auto& c : filter.constraints()) {
    if (c.op != event::Op::kEq || !c.value.is_string()) continue;
    auto it = index_.find({c.atom, c.value.str()});
    if (it == index_.end()) {
      // Indexed attribute with no entry: nothing can match.
      ++stats_.indexed_queries;
      return;
    }
    if (candidates == nullptr || it->second.size() < candidates->size()) {
      candidates = &it->second;
    }
  }

  if (candidates != nullptr) {
    ++stats_.indexed_queries;
    for (FactId id : *candidates) {
      ++stats_.facts_examined;
      const Fact& f = facts_.at(id);
      if (filter.matches(f)) out.push_back(&f);
    }
  } else {
    ++stats_.scan_queries;
    for (const auto& [id, f] : facts_) {
      ++stats_.facts_examined;
      if (filter.matches(f)) out.push_back(&f);
    }
  }
}

}  // namespace aa::match
