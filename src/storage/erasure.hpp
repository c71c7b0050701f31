// Reed–Solomon erasure coding over GF(256).
//
// §3: "The schemes for storing replicated copies of data vary from
// simple block copying to erasure-codes which permit data to be
// reconstituted from a subset of the servers on which it is stored."
// This implements the erasure-code end of that spectrum: an object is
// split into k data fragments plus m parity fragments (systematic
// Vandermonde code); any k of the k+m fragments reconstruct the object.
// The C3/C4 benches compare it against whole-object replication at
// equal redundancy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace aa::storage {

struct Fragment {
  int index = 0;  // 0..k-1 data, k..k+m-1 parity
  Bytes data;
};

class ErasureCoder {
 public:
  /// Precondition: 1 <= data_fragments, 0 <= parity_fragments, and
  /// data_fragments + parity_fragments <= 255.
  ErasureCoder(int data_fragments, int parity_fragments);

  /// Splits `object` into k+m fragments.  The object's true length is
  /// carried in each fragment header so decode can strip padding.
  std::vector<Fragment> encode(const Bytes& object) const;

  /// Reconstructs the object from any >= k distinct fragments.
  Result<Bytes> decode(const std::vector<Fragment>& fragments) const;

 private:
  int k_;
  int m_;
  // Rows k..k+m-1 of the encoding matrix (parity rows only; data rows
  // are the identity — the code is systematic).
  std::vector<std::vector<std::uint8_t>> parity_rows_;
};

// GF(256) arithmetic (exposed for tests).
namespace gf256 {
std::uint8_t mul(std::uint8_t a, std::uint8_t b);
std::uint8_t div(std::uint8_t a, std::uint8_t b);  // precondition: b != 0
std::uint8_t inv(std::uint8_t a);                  // precondition: a != 0
std::uint8_t pow(std::uint8_t a, int n);
}  // namespace gf256

}  // namespace aa::storage
