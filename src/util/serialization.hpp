#pragma once
// Byte-level serialization used by the wire protocol (src/net) and the
// top-k model compression (nn/compression). The wire frames are what
// the communication-accounting layer counts (§VI-D reproduces the
// history-transfer overhead, so model byte sizes must be real, not
// estimated).
//
// Format: little-endian, fixed-width primitives, length-prefixed
// containers. No alignment assumptions; safe across the processes of the
// simulated deployment.
//
// Decoding is defensive: every length prefix is validated against the
// bytes actually remaining BEFORE any byte-count arithmetic happens, so
// a hostile prefix near 2^64 can never wrap `n * sizeof(elem)` (or
// `pos_ + n`) into a small number and turn truncated input into an
// over-read. Truncation throws std::out_of_range; implausible prefixes
// throw std::runtime_error; nothing is ever read past the span.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace baffle {

class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f32(float v);
  void f64(double v);
  void f32_span(std::span<const float> v);        // length-prefixed
  void raw(std::span<const std::uint8_t> bytes);  // no prefix

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Throws std::out_of_range on truncated input and std::runtime_error on
/// malformed length prefixes. Never reads past the given span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();
  /// Decodes a length-prefixed f32 vector into `out` (resized to fit).
  /// On little-endian hosts the payload is copied in one memcpy straight
  /// from the wire bytes — the zero-copy path the model/update decoding
  /// rides; big-endian hosts fall back to per-element decoding.
  void f32_vec_into(std::vector<float>& out);
  /// Consumes exactly `n` bytes and returns a view aliasing the input
  /// span (valid for the span's lifetime).
  std::span<const std::uint8_t> raw(std::size_t n);

  bool done() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n);
  /// Reads a u64 length prefix for `count` elements of `elem_size`
  /// bytes and validates it against remaining() BEFORE any size
  /// arithmetic; throws std::runtime_error when the payload it announces
  /// cannot fit in the remaining bytes.
  std::size_t length_prefix(std::size_t elem_size, const char* what);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace baffle
