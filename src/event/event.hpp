// Events: typed attribute sets with an XML wire form.
//
// An event is a set of named, typed attributes (the Siena model) with
// three well-known attributes given first-class accessors: "type" (the
// event type name, used for routing unknown types to discovery
// matchlets, §5), "time" (virtual timestamp) and "source".  The paper's
// events are XML documents (§4.2: "XML events flowing between pipeline
// components").  Event provides a faithful XML encode/decode pair as the
// reference form, which the golden fixtures and the XML codec's encode
// probe use, and wire_size(), that form's length: simulated links carry
// the handle and charge wire_size() without rendering.
//
// Representation (copy-on-write core): Event is a thin handle over a
// shared, immutable EventData payload.  The payload holds the
// attributes as a small-vector of (AtomId, AttrValue) pairs sorted by
// atom id — names are interned once (event/atom.hpp) and every lookup,
// match and comparison after that is an integer operation.  Copying an
// Event copies a shared_ptr, so fan-out paths (broker forwarding,
// pipeline dispatch, packet bodies, match windows) share one payload
// instead of deep-copying a map per neighbour.  Mutation clones the
// payload only when it is actually shared.
//
// The in-memory order (by AtomId) is canonical within a process but
// depends on interning order, so the XML encoder re-orders attributes
// by *name* — the exact bytes the old std::map-based representation
// produced.  wire_size() is that rendering's length, summed from the
// attributes without rendering and cached in the payload; every handle
// sharing the payload reuses it, so an event crossing k brokers is
// sized once and never serialised for accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/small_vector.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "event/atom.hpp"
#include "event/value.hpp"
#include "xml/xml.hpp"

namespace aa::event {

class Event {
 public:
  /// One attribute: interned name + typed value.
  using Attr = std::pair<AtomId, AttrValue>;
  /// Sorted by AtomId; unique keys.  Inline capacity covers the common
  /// event shape (type/time/source + a few payload fields).
  using AttrList = SmallVector<Attr, 8>;

  Event() = default;
  /// Creates an event with its "type" attribute set.
  explicit Event(std::string type);

  /// Attributes in canonical (AtomId-sorted) order.  The order is
  /// deterministic for a given process and independent of construction
  /// order; it is NOT name order — serialisation re-sorts by name.
  const AttrList& attributes() const;

  Event& set(AtomId atom, AttrValue value);
  Event& set(std::string_view name, AttrValue value);

  bool has(AtomId atom) const { return get(atom) != nullptr; }
  bool has(std::string_view name) const { return get(name) != nullptr; }

  const AttrValue* get(AtomId atom) const;
  /// By-name lookup; never interns, so probing unknown names does not
  /// grow the atom table.
  const AttrValue* get(std::string_view name) const;

  // Typed getters returning nullopt on absence or type mismatch.
  std::optional<std::string> get_string(std::string_view name) const;
  std::optional<std::int64_t> get_int(std::string_view name) const;
  std::optional<double> get_real(std::string_view name) const;
  std::optional<bool> get_bool(std::string_view name) const;
  std::optional<std::string> get_string(AtomId atom) const;
  std::optional<std::int64_t> get_int(AtomId atom) const;
  std::optional<double> get_real(AtomId atom) const;
  std::optional<bool> get_bool(AtomId atom) const;

  /// Event type ("" if unset).
  std::string type() const { return get_string(type_atom()).value_or(""); }
  Event& set_type(const std::string& type) { return set(type_atom(), type); }

  /// Virtual timestamp (0 if unset).
  SimTime time() const { return get_int(time_atom()).value_or(0); }
  Event& set_time(SimTime t) { return set(time_atom(), static_cast<std::int64_t>(t)); }

  std::string source() const { return get_string(source_atom()).value_or(""); }
  Event& set_source(const std::string& s) { return set(source_atom(), s); }

  // --- Trace metadata (observability; obs/trace.hpp) ---
  //
  // Stamped receiver-side onto the copy handed to local subscription
  // callbacks — never onto the wire form.  The stamp rides in the
  // *handle*, not the shared payload: stamping a delivered copy neither
  // clones the payload nor perturbs digests, traffic accounting, or
  // other handles sharing it.  Zero means "untraced".
  static constexpr const char* kTraceIdAttr = "trace.id";
  static constexpr const char* kTraceSpanAttr = "trace.span";
  Event& set_trace(std::uint64_t trace_id, std::uint64_t span_id) {
    trace_id_ = trace_id;
    trace_span_ = span_id;
    return *this;
  }
  std::uint64_t trace_id() const { return trace_id_; }
  std::uint64_t trace_span() const { return trace_span_; }

  /// Payload equality (trace stamps excluded — they are delivery-local
  /// metadata, not part of the event's identity).
  bool operator==(const Event& other) const;

  /// XML form: <event><attr name="..." type="..." value="..."/>...</event>
  /// Attributes appear in name order — byte-compatible with the wire
  /// form of the pre-COW (std::map) representation.
  xml::Element to_xml() const;
  static Result<Event> from_xml(const xml::Element& element);

  std::string to_xml_string() const;
  static Result<Event> parse(std::string_view xml_text);

  /// Bytes this event occupies on the simulated wire: exactly
  /// to_xml_string().size(), computed from the attributes (arithmetic,
  /// no rendering) and cached in the shared payload, so it is summed
  /// once per payload, not once per send.
  std::size_t wire_size() const;

  /// Compact binary form (wire::Codec's kBinary encoding): varint
  /// attribute count, then per attribute — in *name* order, the same
  /// process-independent canonical order the XML form uses — a
  /// varint-length name, a one-byte type tag, and a type-shaped value
  /// (varint-length string / zigzag-varint int / 8-byte real / 1-byte
  /// bool).  Names travel as spelled because AtomIds are process-local
  /// interning handles; decoding re-interns.
  void to_binary(BufWriter& w) const;
  static Result<Event> from_binary(BufReader& r);

  /// Exact byte length of to_binary(), lazily computed (arithmetic, no
  /// encoding pass) and cached in the shared payload like wire_size().
  std::size_t binary_wire_size() const;

  /// Compact human-readable rendering for logs (name order).
  std::string describe() const;

  /// True when both handles share one payload (COW diagnostics).
  bool shares_payload_with(const Event& other) const {
    return data_ != nullptr && data_ == other.data_;
  }
  /// True when another handle shares this one's payload, so a holder
  /// can tell whether the event is still referenced elsewhere (a packet
  /// in flight, say).
  bool payload_shared() const { return data_ != nullptr && data_.use_count() > 1; }

  /// Process-wide count of XML renderings performed (to_xml_string
  /// calls).  Sizing never renders, so forwarding an event across k
  /// hops adds nothing here; only real encodes do.
  static std::uint64_t serializations();

 private:
  struct EventData;

  /// The payload, cloned first if shared ("copy on write").  Always
  /// invalidates the cached wire size — callers mutate next.
  EventData& mutable_data();

  std::shared_ptr<EventData> data_;  // null = no attributes
  std::uint64_t trace_id_ = 0;
  std::uint64_t trace_span_ = 0;
};

}  // namespace aa::event
