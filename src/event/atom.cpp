#include "event/atom.hpp"

#include <deque>
#include <unordered_map>

namespace aa::event {

namespace {

// The table is single-threaded, like the rest of the simulator: nothing
// interns or reads names from a second thread, so no call takes a lock.
// Names are kept in a deque so the strings atom_name() hands out never
// move.
struct AtomTable {
  std::unordered_map<std::string_view, AtomId> ids;  // views into names
  std::deque<std::string> names;
};

AtomTable& table() {
  static AtomTable* t = new AtomTable();  // never destroyed: atom_name
                                          // references must outlive exit
  return *t;
}

}  // namespace

AtomId intern(std::string_view name) {
  AtomTable& t = table();
  auto it = t.ids.find(name);
  if (it != t.ids.end()) return it->second;
  const AtomId id = static_cast<AtomId>(t.names.size());
  t.names.emplace_back(name);
  t.ids.emplace(std::string_view(t.names.back()), id);
  return id;
}

AtomId lookup_atom(std::string_view name) {
  AtomTable& t = table();
  auto it = t.ids.find(name);
  return it == t.ids.end() ? kNoAtom : it->second;
}

const std::string& atom_name(AtomId id) { return table().names[id]; }

AtomId type_atom() {
  static const AtomId id = intern("type");
  return id;
}

AtomId time_atom() {
  static const AtomId id = intern("time");
  return id;
}

AtomId source_atom() {
  static const AtomId id = intern("source");
  return id;
}

}  // namespace aa::event
