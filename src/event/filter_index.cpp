#include "event/filter_index.hpp"

#include <algorithm>
#include <cmath>

namespace aa::event {

namespace {

template <typename T>
void remove_one(std::vector<T>& ids, T id) {
  auto it = std::find(ids.begin(), ids.end(), id);
  if (it != ids.end()) {
    *it = ids.back();
    ids.pop_back();
  }
}

/// An equality a hash table can key: NaN compares with nothing, so no
/// table keyed by value can hold it.
bool is_key(const Constraint& c) {
  return c.op == Op::kEq && !(c.value.is_real() && std::isnan(c.value.real()));
}

/// Removes one posting of `slot`: from the marked prefix when it is the
/// filter's access predicate (the prefix stays contiguous), else from
/// the rest of the list.
template <typename List>
void remove_eq(List& list, std::uint32_t slot, bool access) {
  auto& slots = list.slots;
  const auto marked_end = slots.begin() + list.marked;
  if (access) {
    const auto it = std::find(slots.begin(), marked_end, slot);
    if (it == marked_end) return;
    *it = slots[list.marked - 1];
    slots[list.marked - 1] = slots.back();
    slots.pop_back();
    --list.marked;
  } else {
    const auto it = std::find(marked_end, slots.end(), slot);
    if (it == slots.end()) return;
    *it = slots.back();
    slots.pop_back();
  }
}

}  // namespace

const FilterIndex::EqIds* FilterIndex::AttrTables::find(const AttrValue& v) const {
  if (v.is_string()) {
    const auto it = eq_str.find(v.str());
    return it == eq_str.end() ? nullptr : &it->second;
  }
  if (v.is_numeric()) {
    const auto it = eq_num.find(v.as_real());  // NaN finds nothing
    return it == eq_num.end() ? nullptr : &it->second;
  }
  return &eq_bool[v.boolean() ? 1 : 0];
}

bool FilterIndex::AttrTables::empty() const {
  return eq_str.empty() && eq_num.empty() && eq_bool[0].slots.empty() &&
         eq_bool[1].slots.empty();
}

void FilterIndex::post(const Constraint& c, Slot slot, bool access) {
  AttrTables& t = attrs_[c.atom];
  // Numerics are keyed by the widened double — the exact equivalence
  // classes of AttrValue::compare, so hash hits reproduce oracle
  // equality.
  EqIds& list = c.value.is_string()    ? t.eq_str[c.value.str()]
                : c.value.is_numeric() ? t.eq_num[c.value.as_real()]
                                       : t.eq_bool[c.value.boolean() ? 1 : 0];
  list.slots.push_back(slot);
  if (access) std::swap(list.slots[list.marked++], list.slots.back());
}

void FilterIndex::unpost(const Constraint& c, Slot slot, bool access) {
  auto attr_it = attrs_.find(c.atom);
  if (attr_it == attrs_.end()) return;
  AttrTables& t = attr_it->second;
  auto from_map = [&](auto& table, const auto& key) {
    auto it = table.find(key);
    if (it == table.end()) return;
    remove_eq(it->second, slot, access);
    if (it->second.slots.empty()) table.erase(it);
  };
  if (c.value.is_string()) {
    from_map(t.eq_str, c.value.str());
  } else if (c.value.is_numeric()) {
    from_map(t.eq_num, c.value.as_real());
  } else {
    remove_eq(t.eq_bool[c.value.boolean() ? 1 : 0], slot, access);
  }
  if (t.empty()) attrs_.erase(attr_it);
}

void FilterIndex::add(std::uint64_t id, const Filter& filter) {
  remove(id);
  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(slot_id_.size());
    slot_id_.push_back(id);
    slot_filter_.push_back(filter);
    slot_access_.push_back(kNoAccess);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_id_[slot] = id;
    slot_filter_[slot] = filter;
  }
  const std::vector<Constraint>& cs = filter.constraints();
  // The access predicate: the equality whose list is shortest now, so
  // match()'s candidates and the covering probe's marked prefixes stay
  // short.
  std::uint32_t access = kNoAccess;
  std::size_t shortest = 0;
  for (std::uint32_t i = 0; i < cs.size(); ++i) {
    if (!is_key(cs[i])) continue;
    const EqIds* list = find_eq(cs[i]);
    const std::size_t length = list == nullptr ? 0 : list->slots.size();
    if (access == kNoAccess || length < shortest) {
      access = i;
      shortest = length;
    }
  }
  slot_access_[slot] = access;
  if (filter.empty()) {
    match_all_.push_back(id);
  } else if (access == kNoAccess) {
    unkeyed_.push_back(slot);
  } else {
    // A keyed filter posts only its equalities; match() verifies the
    // rest on each candidate.
    for (std::uint32_t i = 0; i < cs.size(); ++i) {
      if (is_key(cs[i])) post(cs[i], slot, i == access);
    }
  }
  filters_.emplace(id, slot);
}

void FilterIndex::remove(std::uint64_t id) {
  auto it = filters_.find(id);
  if (it == filters_.end()) return;
  const Slot slot = it->second;
  const std::vector<Constraint>& cs = slot_filter_[slot].constraints();
  const std::uint32_t access = slot_access_[slot];
  if (cs.empty()) {
    remove_one(match_all_, id);
  } else if (access == kNoAccess) {
    remove_one(unkeyed_, slot);
  } else {
    for (std::uint32_t i = 0; i < cs.size(); ++i) {
      if (is_key(cs[i])) unpost(cs[i], slot, i == access);
    }
  }
  slot_filter_[slot] = Filter();
  free_slots_.push_back(slot);
  filters_.erase(it);
}

const FilterIndex::EqIds* FilterIndex::find_eq(const Constraint& c) const {
  if (c.op != Op::kEq) return nullptr;
  const auto attr_it = attrs_.find(c.atom);
  return attr_it == attrs_.end() ? nullptr : attr_it->second.find(c.value);
}

void FilterIndex::covered_candidates(const Filter& r, std::vector<std::uint64_t>& out) const {
  // r's equality `a = v` is implied only by an equal equality, so every
  // filter r covers sits in the posting list of each of r's equalities.
  const Ids* rarest = nullptr;
  for (const Constraint& c : r.constraints()) {
    if (c.op != Op::kEq) continue;
    const EqIds* list = find_eq(c);
    if (list == nullptr) return;  // no stored filter holds it: r covers none
    if (rarest == nullptr || list->slots.size() < rarest->size()) rarest = &list->slots;
  }
  if (rarest == nullptr) {
    for (const auto& [id, slot] : filters_) out.push_back(id);
    return;
  }
  for (Slot slot : *rarest) out.push_back(slot_id_[slot]);
}

bool FilterIndex::verify(Slot slot, const Event& e) const {
  const std::vector<Constraint>& cs = slot_filter_[slot].constraints();
  const std::uint32_t access = slot_access_[slot];
  for (std::uint32_t i = 0; i < cs.size(); ++i) {
    if (i == access) continue;  // the key the candidate was found under
    const AttrValue* v = e.get(cs[i].atom);
    if (v == nullptr || !cs[i].matches(*v)) return false;
  }
  return true;
}

std::uint64_t FilterIndex::match(const Event& e, std::vector<std::uint64_t>& out) const {
  std::uint64_t probes = 0;
  auto test = [&](Slot slot) {
    ++probes;
    if (verify(slot, e)) out.push_back(slot_id_[slot]);
  };
  // A keyed filter's one marked posting sits under a single key, and
  // event attributes are unique, so each is a candidate at most once.
  for (const auto& [atom, value] : e.attributes()) {
    const auto attr_it = attrs_.find(atom);
    if (attr_it == attrs_.end()) continue;
    const EqIds* list = attr_it->second.find(value);
    if (list == nullptr) continue;
    for (Slot i = 0; i < list->marked; ++i) test(list->slots[i]);
  }
  for (Slot slot : unkeyed_) test(slot);
  out.insert(out.end(), match_all_.begin(), match_all_.end());
  return probes;
}

}  // namespace aa::event
