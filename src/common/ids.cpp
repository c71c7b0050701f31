#include "common/ids.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace aa {

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
constexpr char kHexChars[] = "0123456789abcdef";

// A 160-bit ring value as three machine words, most significant first
// (32 + 64 + 64 bits), so ring arithmetic is three subtractions with
// borrow instead of a 20-step byte loop.  Member order makes the
// defaulted comparison numeric.
struct Limbs {
  std::uint32_t hi;
  std::uint64_t mid;
  std::uint64_t lo;
  auto operator<=>(const Limbs&) const = default;
};

// Swaps between native and big-endian order (its own inverse); one
// instruction on little-endian targets.
std::uint32_t big_endian(std::uint32_t v) {
  return std::endian::native == std::endian::big ? v : __builtin_bswap32(v);
}
std::uint64_t big_endian(std::uint64_t v) {
  return std::endian::native == std::endian::big ? v : __builtin_bswap64(v);
}

template <typename Word>
Word load_be(const std::uint8_t* p) {
  Word v = 0;
  std::memcpy(&v, p, sizeof v);
  return big_endian(v);
}

template <typename Word>
void store_be(Word v, std::uint8_t* p) {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof v);
}

Limbs load(const std::array<std::uint8_t, 20>& b) {
  return {load_be<std::uint32_t>(b.data()), load_be<std::uint64_t>(b.data() + 4),
          load_be<std::uint64_t>(b.data() + 12)};
}

Uid160 to_uid(const Limbs& l) {
  std::array<std::uint8_t, 20> b{};
  store_be(l.hi, b.data());
  store_be(l.mid, b.data() + 4);
  store_be(l.lo, b.data() + 12);
  return Uid160(b);
}

/// a - b (mod 2^160).
Limbs sub(const Limbs& a, const Limbs& b) {
  const std::uint64_t borrow_lo = a.lo < b.lo ? 1 : 0;
  const std::uint32_t borrow_mid = (a.mid < b.mid || a.mid - b.mid < borrow_lo) ? 1 : 0;
  return {a.hi - b.hi - borrow_mid, a.mid - b.mid - borrow_lo, a.lo - b.lo};
}

/// min(b - a, a - b) (mod 2^160): the shorter way round the ring.  For
/// d = b - a that is d below 2^159 and -d above it (equal at 2^159), so
/// d's top bit picks the side.
Limbs ring_min(const Limbs& a, const Limbs& b) {
  const Limbs d = sub(b, a);
  const Limbs n = sub(Limbs{0, 0, 0}, d);
  const bool above = (d.hi >> 31) != 0;
  // Selected limb by limb, which keeps the limbs in registers.
  return {above ? n.hi : d.hi, above ? n.mid : d.mid, above ? n.lo : d.lo};
}
}  // namespace

Uid160 Uid160::from_hex(std::string_view hex, bool* ok) {
  Uid160 id;
  if (hex.size() != static_cast<std::size_t>(kDigits)) {
    if (ok) *ok = false;
    return id;
  }
  for (int i = 0; i < kDigits; ++i) {
    int v = hex_value(hex[static_cast<std::size_t>(i)]);
    if (v < 0) {
      if (ok) *ok = false;
      return Uid160{};
    }
    id = id.with_digit(i, v);
  }
  if (ok) *ok = true;
  return id;
}

Uid160 Uid160::with_digit(int i, int value) const {
  Uid160 copy = *this;
  auto& b = copy.bytes_[static_cast<std::size_t>(i / 2)];
  if (i % 2 == 0) {
    b = static_cast<std::uint8_t>((b & 0x0F) | (value << 4));
  } else {
    b = static_cast<std::uint8_t>((b & 0xF0) | (value & 0x0F));
  }
  return copy;
}

int Uid160::shared_prefix_digits(const Uid160& other) const {
  for (int i = 0; i < kDigits; ++i) {
    if (digit(i) != other.digit(i)) return i;
  }
  return kDigits;
}

Uid160 Uid160::ring_distance_cw(const Uid160& other) const {
  return to_uid(sub(load(other.bytes_), load(bytes_)));
}

Uid160 Uid160::ring_distance(const Uid160& other) const {
  return to_uid(ring_min(load(bytes_), load(other.bytes_)));
}

bool Uid160::closer_to(const Uid160& target, const Uid160& other) const {
  const Limbs t = load(target.bytes_);
  const Limbs mine = ring_min(load(bytes_), t);
  const Limbs theirs = ring_min(load(other.bytes_), t);
  if (mine != theirs) return mine < theirs;
  return *this < other;
}

std::string Uid160::to_hex() const {
  std::string s;
  s.reserve(kDigits);
  for (int i = 0; i < kDigits; ++i) s.push_back(kHexChars[digit(i)]);
  return s;
}

bool Uid160::is_zero() const {
  return std::all_of(bytes_.begin(), bytes_.end(), [](std::uint8_t b) { return b == 0; });
}

}  // namespace aa
