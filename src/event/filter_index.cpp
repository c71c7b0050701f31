#include "event/filter_index.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

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

/// NaN compares with nothing, so no table keyed by value can hold it.
bool is_nan(const AttrValue& v) { return v.is_real() && std::isnan(v.real()); }

/// An equality a hash table can key: the postings of keyed filters.
bool is_key(const Constraint& c) { return c.op == Op::kEq && !is_nan(c.value); }

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

/// Scans upper-bound constraints ("v < bound" / "v <= bound"): satisfied
/// by every bound above the event value, plus non-strict bounds equal to
/// it.
template <typename Map, typename Key, typename Hit>
void scan_upper(const Map& m, const Key& x, Hit&& hit) {
  auto it = m.lower_bound(x);
  if (it != m.end() && !m.key_comp()(x, it->first)) {  // bound == x
    hit(it->second.nonstrict);
    ++it;
  }
  for (; it != m.end(); ++it) {
    hit(it->second.strict);
    hit(it->second.nonstrict);
  }
}

/// Scans lower-bound constraints ("v > bound" / "v >= bound").
template <typename Map, typename Key, typename Hit>
void scan_lower(const Map& m, const Key& x, Hit&& hit) {
  auto it = m.begin();
  for (; it != m.end() && m.key_comp()(it->first, x); ++it) {
    hit(it->second.strict);
    hit(it->second.nonstrict);
  }
  if (it != m.end() && !m.key_comp()(x, it->first)) {  // bound == x
    hit(it->second.nonstrict);
  }
}

}  // namespace

bool FilterIndex::AttrTables::empty() const {
  return exists.empty() && eq_str.empty() && eq_num.empty() && eq_bool[0].slots.empty() &&
         eq_bool[1].slots.empty() && upper_num.empty() && upper_str.empty() && lower_num.empty() &&
         lower_str.empty() && prefix.empty() && residual.empty();
}

void FilterIndex::post(const Constraint& c, Slot slot, bool access) {
  AttrTables& t = attrs_[c.atom];
  const bool strict = c.op == Op::kLt || c.op == Op::kGt;
  if (c.op != Op::kExists && is_nan(c.value)) {
    t.residual.push_back(Residual{c, slot});
    return;
  }
  switch (c.op) {
    case Op::kExists:
      t.exists.push_back(slot);
      return;
    case Op::kEq: {
      // Numerics are keyed by the widened double — the exact equivalence
      // classes of AttrValue::compare, so hash hits reproduce oracle
      // equality.
      EqIds& list = c.value.is_string()    ? t.eq_str[c.value.str()]
                    : c.value.is_numeric() ? t.eq_num[c.value.as_real()]
                                           : t.eq_bool[c.value.boolean() ? 1 : 0];
      list.slots.push_back(slot);
      if (access) std::swap(list.slots[list.marked++], list.slots.back());
      return;
    }
    case Op::kLt:
    case Op::kLe:
      if (c.value.is_numeric()) {
        Bucket& b = t.upper_num[c.value.as_real()];
        (strict ? b.strict : b.nonstrict).push_back(slot);
        return;
      }
      if (c.value.is_string()) {
        Bucket& b = t.upper_str[c.value.str()];
        (strict ? b.strict : b.nonstrict).push_back(slot);
        return;
      }
      break;  // bool bounds: residual
    case Op::kGt:
    case Op::kGe:
      if (c.value.is_numeric()) {
        Bucket& b = t.lower_num[c.value.as_real()];
        (strict ? b.strict : b.nonstrict).push_back(slot);
        return;
      }
      if (c.value.is_string()) {
        Bucket& b = t.lower_str[c.value.str()];
        (strict ? b.strict : b.nonstrict).push_back(slot);
        return;
      }
      break;
    case Op::kPrefix:
      if (c.value.is_string()) {
        t.prefix[c.value.str()].push_back(slot);
        return;
      }
      break;  // non-string prefix never matches; residual preserves that
    default:
      break;  // kNe, kSuffix, kSubstring
  }
  t.residual.push_back(Residual{c, slot});
}

void FilterIndex::unpost(const Constraint& c, Slot slot, bool access) {
  auto attr_it = attrs_.find(c.atom);
  if (attr_it == attrs_.end()) return;
  AttrTables& t = attr_it->second;
  const bool strict = c.op == Op::kLt || c.op == Op::kGt;

  auto from_bucket = [&](auto& table, const auto& key) {
    auto it = table.find(key);
    if (it == table.end()) return;
    remove_one(strict ? it->second.strict : it->second.nonstrict, slot);
    if (it->second.empty()) table.erase(it);
  };
  auto from_list_map = [&](auto& table, const auto& key) {
    auto it = table.find(key);
    if (it == table.end()) return;
    remove_one(it->second, slot);
    if (it->second.empty()) table.erase(it);
  };
  auto from_eq_map = [&](auto& table, const auto& key) {
    auto it = table.find(key);
    if (it == table.end()) return;
    remove_eq(it->second, slot, access);
    if (it->second.slots.empty()) table.erase(it);
  };
  auto from_residual = [&] {
    for (auto it = t.residual.begin(); it != t.residual.end(); ++it) {
      if (it->slot == slot && it->constraint == c) {
        *it = t.residual.back();
        t.residual.pop_back();
        break;
      }
    }
  };

  if (c.op != Op::kExists && is_nan(c.value)) {
    from_residual();
    if (t.empty()) attrs_.erase(attr_it);
    return;
  }
  switch (c.op) {
    case Op::kExists:
      remove_one(t.exists, slot);
      break;
    case Op::kEq:
      if (c.value.is_string()) {
        from_eq_map(t.eq_str, c.value.str());
      } else if (c.value.is_numeric()) {
        from_eq_map(t.eq_num, c.value.as_real());
      } else {
        remove_eq(t.eq_bool[c.value.boolean() ? 1 : 0], slot, access);
      }
      break;
    case Op::kLt:
    case Op::kLe:
      if (c.value.is_numeric()) {
        from_bucket(t.upper_num, c.value.as_real());
      } else if (c.value.is_string()) {
        from_bucket(t.upper_str, c.value.str());
      } else {
        from_residual();
      }
      break;
    case Op::kGt:
    case Op::kGe:
      if (c.value.is_numeric()) {
        from_bucket(t.lower_num, c.value.as_real());
      } else if (c.value.is_string()) {
        from_bucket(t.lower_str, c.value.str());
      } else {
        from_residual();
      }
      break;
    case Op::kPrefix:
      if (c.value.is_string()) {
        from_list_map(t.prefix, c.value.str());
      } else {
        from_residual();
      }
      break;
    default:
      from_residual();
      break;
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
    slot_needed_.push_back(0);
    slot_access_.push_back(kNoAccess);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_id_[slot] = id;
    slot_filter_[slot] = filter;
  }
  const std::vector<Constraint>& cs = filter.constraints();
  slot_needed_[slot] = static_cast<std::uint32_t>(cs.size());
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
  } else {
    // A keyed filter posts only its equalities; match() verifies the
    // rest on each candidate.
    for (std::uint32_t i = 0; i < cs.size(); ++i) {
      if (access == kNoAccess || is_key(cs[i])) post(cs[i], slot, i == access);
    }
    if (access == kNoAccess) unkeyed_.push_back(slot);
  }
  filters_.emplace(id, slot);
}

void FilterIndex::remove(std::uint64_t id) {
  auto it = filters_.find(id);
  if (it == filters_.end()) return;
  const Slot slot = it->second;
  const std::vector<Constraint>& cs = slot_filter_[slot].constraints();
  if (cs.empty()) {
    remove_one(match_all_, id);
  } else {
    const std::uint32_t access = slot_access_[slot];
    for (std::uint32_t i = 0; i < cs.size(); ++i) {
      if (access == kNoAccess || is_key(cs[i])) unpost(cs[i], slot, i == access);
    }
    if (access == kNoAccess) remove_one(unkeyed_, slot);
  }
  slot_filter_[slot] = Filter();
  free_slots_.push_back(slot);
  filters_.erase(it);
}

const FilterIndex::EqIds* FilterIndex::find_eq(const Constraint& c) const {
  if (c.op != Op::kEq) return nullptr;
  const auto attr_it = attrs_.find(c.atom);
  if (attr_it == attrs_.end()) return nullptr;
  const AttrTables& t = attr_it->second;
  if (c.value.is_string()) {
    const auto it = t.eq_str.find(c.value.str());
    return it == t.eq_str.end() ? nullptr : &it->second;
  }
  if (c.value.is_numeric()) {
    const auto it = t.eq_num.find(c.value.as_real());  // NaN finds nothing
    return it == t.eq_num.end() ? nullptr : &it->second;
  }
  return &t.eq_bool[c.value.boolean() ? 1 : 0];
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
  // Epoch-stamped counting: a slot's count is valid only when its stamp
  // equals the current epoch, so the flat arrays never need clearing.
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  counts_.resize(slot_id_.size());
  stamp_.resize(slot_id_.size(), 0);
  touched_.clear();
  auto touch = [&](Slot slot) {
    if (stamp_[slot] != epoch_) {
      stamp_[slot] = epoch_;
      counts_[slot] = 1;
      touched_.push_back(slot);
    } else {
      ++counts_[slot];
    }
  };
  auto hit = [&](const Ids& slots) {
    for (Slot slot : slots) {
      touch(slot);
      ++probes;
    }
  };
  // A keyed filter's one marked posting sits under a single key, and
  // event attributes are unique, so each is a candidate at most once.
  auto candidates = [&](const EqIds& list) {
    for (Slot i = 0; i < list.marked; ++i) {
      const Slot slot = list.slots[i];
      ++probes;
      if (verify(slot, e)) out.push_back(slot_id_[slot]);
    }
  };

  for (const auto& [atom, value] : e.attributes()) {
    auto attr_it = attrs_.find(atom);
    if (attr_it == attrs_.end()) continue;
    const AttrTables& t = attr_it->second;

    hit(t.exists);
    if (value.is_string()) {
      const std::string& s = value.str();
      if (auto eq = t.eq_str.find(s); eq != t.eq_str.end()) candidates(eq->second);
      scan_upper(t.upper_str, s, hit);
      scan_lower(t.lower_str, s, hit);
      if (!t.prefix.empty()) {
        for (std::size_t len = 0; len <= s.size(); ++len) {
          auto p = t.prefix.find(std::string_view(s.data(), len));
          if (p != t.prefix.end()) hit(p->second);
        }
      }
    } else if (value.is_numeric()) {
      const double x = value.as_real();
      if (!std::isnan(x)) {
        if (auto eq = t.eq_num.find(x); eq != t.eq_num.end()) candidates(eq->second);
        scan_upper(t.upper_num, x, hit);
        scan_lower(t.lower_num, x, hit);
      }
    } else {
      candidates(t.eq_bool[value.boolean() ? 1 : 0]);
    }
    for (const Residual& r : t.residual) {
      ++probes;
      if (r.constraint.matches(value)) touch(r.slot);
    }
  }

  for (Slot slot : touched_) {
    // Each constraint of an unkeyed filter is posted under exactly one
    // attribute and event attributes are unique, so a count can only
    // reach the filter's constraint total when every constraint is
    // satisfied.
    if (counts_[slot] == slot_needed_[slot]) out.push_back(slot_id_[slot]);
  }
  out.insert(out.end(), match_all_.begin(), match_all_.end());
  return probes;
}

}  // namespace aa::event
