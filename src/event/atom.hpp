// Per-process attribute-name interning.
//
// Every attribute name that enters the system — from an event setter, a
// filter constraint, or the XML decoder — is interned once into a
// process-wide atom table and handled as a dense 32-bit AtomId from
// then on.  Matching, indexing and equality all become integer
// operations; the string itself is only touched again at the XML
// serialisation boundary (Event::to_xml) where the wire form still
// carries full names.
//
// AtomIds are stable for the life of the process but NOT across
// processes (they depend on interning order), which is why nothing
// derived from an AtomId may leak into the wire form: the XML encoder
// orders attributes by *name*, exactly as the old std::map-based event
// did, so wire bytes and delivery digests are independent of intern
// order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace aa::event {

using AtomId = std::uint32_t;

/// Sentinel for "no such atom" (lookup misses).
inline constexpr AtomId kNoAtom = 0xFFFFFFFFu;

/// Interns `name`, creating an id on first sight.  O(1) amortised.
AtomId intern(std::string_view name);

/// Looks up an existing atom without creating one; kNoAtom on miss.
/// Used by read paths (Event::get by name) so probing arbitrary names
/// never grows the table.
AtomId lookup_atom(std::string_view name);

/// The interned spelling; the reference is stable for the process
/// lifetime.  Precondition: `id` came from intern().
const std::string& atom_name(AtomId id);

// Well-known atoms, interned on first use.  Function-local statics keep
// initialisation order safe regardless of which translation unit asks
// first.
AtomId type_atom();
AtomId time_atom();
AtomId source_atom();

}  // namespace aa::event
