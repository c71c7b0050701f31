// Byte-buffer serialization for messages, bundles and stored objects.
//
// The wire format is explicit little-endian with length-prefixed strings,
// so serialized sizes are deterministic and byte counts can stand in for
// network transfer costs in the simulator.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"

namespace aa {

using Bytes = std::vector<std::uint8_t>;

/// Bytes a LEB128 varint encoding of `v` occupies (1..10).
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag maps signed to unsigned so small-magnitude negatives stay
/// short as varints.
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Appends primitive values to a growing byte buffer.
class BufWriter {
 public:
  /// Sizes the buffer for `n` bytes, so a writer that knows its length
  /// allocates once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { raw(&v, 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// LEB128 varint (the compact binary wire codec's integer form).
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  void svarint(std::int64_t v) { varint(zigzag(v)); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  /// Varint-length-prefixed string (binary codec; str() keeps the
  /// 4-byte prefix used by the store/bundle formats).
  void vstr(std::string_view s) {
    varint(s.size());
    raw(s.data(), s.size());
  }

  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  void uid(const Uid160& id) { raw(id.bytes().data(), 20); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), bytes, bytes + n);
  }
  Bytes buf_;
};

/// Reads primitive values back; all accessors fail soft (set the error
/// flag and return zero values) so malformed input never reads out of
/// bounds.
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, 1);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    raw(&v, 2);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, 8);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    double v = 0;
    raw(&v, 8);
    return v;
  }
  bool boolean() { return u8() != 0; }

  /// LEB128 varint; fails (like every accessor) on truncation and on
  /// encodings longer than 10 bytes, so corrupt input cannot loop.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      if (failed_) return 0;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    failed_ = true;
    return 0;
  }
  std::int64_t svarint() { return unzigzag(varint()); }

  std::string vstr() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  Uid160 uid() {
    std::array<std::uint8_t, 20> b{};
    raw(b.data(), 20);
    return Uid160(b);
  }

  /// Consumes `n` bytes and returns them as a view into the input
  /// (empty + failed on truncation).  Used for length-delimited frame
  /// members that an inner reader then decodes.
  std::span<const std::uint8_t> view(std::size_t n) {
    if (!check(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool failed() const { return failed_; }
  /// Marks the input corrupt: a decoder that reads a value out of range
  /// fails the reader as truncation does, so every later read fails.
  void fail() { failed_ = true; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  // `n` may come from a corrupt varint: compare against what remains,
  // since pos_ + n can wrap.
  bool check(std::size_t n) {
    if (failed_ || n > data_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }
  void raw(void* out, std::size_t n) {
    if (!check(n)) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

Bytes to_bytes(std::string_view s);
std::string to_string(std::span<const std::uint8_t> b);

}  // namespace aa
