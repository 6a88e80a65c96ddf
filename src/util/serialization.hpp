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
  /// Sizes the buffer for `n` bytes up front, so a writer that knows
  /// its output length appends without reallocating.
  void reserve(std::size_t n) { bytes_.reserve(n); }

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

/// Stands in for a ByteWriter, writing nothing and counting what it
/// would have written, so an encoder can size its output by running
/// once dry. It has the writer methods the wire bodies use.
class ByteCounter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void f32_span(std::span<const float> v) { n_ += 8 + v.size() * 4; }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// A length-prefixed f32 vector read in place: size() little-endian
/// floats that still lie in the reader's input, at any alignment. It
/// aliases that input, so it is valid only as long as the input is.
class F32View {
 public:
  F32View() = default;
  /// `bytes.size()` must be a multiple of 4 (ByteReader::f32_view
  /// guarantees it).
  explicit F32View(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t size() const { return bytes_.size() / sizeof(float); }
  std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// The floats [first, first + count); the range must lie inside.
  F32View subview(std::size_t first, std::size_t count) const {
    return F32View(
        bytes_.subspan(first * sizeof(float), count * sizeof(float)));
  }

  /// Copies the floats into `out`, resized to fit: one memcpy on
  /// little-endian hosts, per-element decoding on big-endian ones.
  void copy_into(std::vector<float>& out) const;
  /// As copy_into, into a span of exactly size() floats.
  void copy_to(std::span<float> out) const;
  /// True when `v` holds these floats bit for bit (memcmp on
  /// little-endian hosts): -0 never matches +0, and a NaN matches only
  /// its own bits.
  bool same_bytes(std::span<const float> v) const;

 private:
  std::span<const std::uint8_t> bytes_;
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
  /// Consumes a length-prefixed f32 vector and returns it in place,
  /// aliasing the input span; F32View::copy_into materializes it.
  F32View f32_view();
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
