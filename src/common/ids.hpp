// 160-bit identifiers, as used by the Plaxton-routing generation of P2P
// systems the paper builds on (Pastry, PAST, OceanStore): both node
// identifiers and object GUIDs live in the same circular 160-bit space,
// and routing proceeds digit by digit (base 2^b, here b=4 so digits are
// hex nibbles).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.hpp"

namespace aa {

/// A 160-bit identifier in the Plaxton ring.  Big-endian byte order:
/// bytes_[0] holds the most significant digits, which routing consumes
/// first.
class Uid160 {
 public:
  static constexpr int kBits = 160;
  static constexpr int kDigits = 40;  // base-16 digits

  constexpr Uid160() : bytes_{} {}
  explicit constexpr Uid160(const std::array<std::uint8_t, 20>& bytes) : bytes_(bytes) {}

  /// Identifier derived from arbitrary content (secure hash), the way
  /// PAST derives object GUIDs from document content.
  static Uid160 from_content(std::string_view content) { return Uid160(Sha1::hash(content)); }

  /// Identifier derived from a name (e.g. a node's public key or a
  /// keyword set); equivalent digest path, separated for readability at
  /// call sites.
  static Uid160 from_name(std::string_view name) { return from_content(name); }

  /// Parses exactly 40 hex characters.  Returns all-zero id on bad input
  /// paired with `ok=false`.
  static Uid160 from_hex(std::string_view hex, bool* ok = nullptr);

  const std::array<std::uint8_t, 20>& bytes() const { return bytes_; }

  /// The i-th base-16 digit, counting from the most significant (i=0).
  int digit(int i) const {
    const std::uint8_t b = bytes_[static_cast<std::size_t>(i / 2)];
    return (i % 2 == 0) ? (b >> 4) : (b & 0x0F);
  }

  /// Returns a copy with the i-th base-16 digit replaced.
  Uid160 with_digit(int i, int value) const;

  /// Number of leading base-16 digits shared with `other` (0..40).
  int shared_prefix_digits(const Uid160& other) const;

  /// Clockwise ring distance from this id to `other`: the full 160-bit
  /// difference (other - this) mod 2^160, returned as a Uid160 whose
  /// big-endian byte order makes operator< a numeric comparison.
  Uid160 ring_distance_cw(const Uid160& other) const;

  /// min(cw, ccw) ring distance as a 160-bit value.
  Uid160 ring_distance(const Uid160& other) const;

  /// True if this id is numerically closer to `target` than `other` is;
  /// ties broken toward the numerically smaller id, so the relation is
  /// total and deterministic.
  bool closer_to(const Uid160& target, const Uid160& other) const;

  std::string to_hex() const;

  bool is_zero() const;

  auto operator<=>(const Uid160&) const = default;

 private:
  std::array<std::uint8_t, 20> bytes_;
};

/// Identifier of a physical (simulated) node in the network.
using NodeId = Uid160;
/// Globally unique identifier of a stored object.
using ObjectId = Uid160;

struct Uid160Hash {
  std::size_t operator()(const Uid160& id) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint8_t b : id.bytes()) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace aa
