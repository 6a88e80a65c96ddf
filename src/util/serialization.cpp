#include "util/serialization.hpp"

#include <bit>
#include <stdexcept>

#include "util/contracts.hpp"

namespace baffle {

namespace {
template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

template <typename T>
T read_le(std::span<const std::uint8_t> bytes, std::size_t pos) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(bytes[pos + i]) << (8 * i);
  }
  return v;
}

constexpr bool kLittleEndian = std::endian::native == std::endian::little;
}  // namespace

void ByteWriter::u8(std::uint8_t v) { bytes_.push_back(v); }
void ByteWriter::u16(std::uint16_t v) { append_le(bytes_, v); }
void ByteWriter::u32(std::uint32_t v) { append_le(bytes_, v); }
void ByteWriter::u64(std::uint64_t v) { append_le(bytes_, v); }
void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::f32_span(std::span<const float> v) {
  u64(v.size());
  if constexpr (kLittleEndian) {
    // float bit patterns already have wire layout on LE hosts; append
    // the whole payload in one shot instead of 4 pushes per element.
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(float));
  } else {
    for (float x : v) f32(x);
  }
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void ByteReader::need(std::size_t n) {
  if (remaining() < n) throw std::out_of_range("ByteReader: truncated input");
}

std::size_t ByteReader::length_prefix(std::size_t elem_size,
                                      const char* what) {
  const std::uint64_t n = u64();
  // Validate against remaining() BEFORE computing n * elem_size: the
  // division cannot overflow, while the multiplication (or a later
  // pos_ + n) would wrap for hostile prefixes near 2^64 and turn a
  // truncated buffer into an over-read.
  const std::uint64_t max_elems =
      elem_size == 0 ? 0 : remaining() / elem_size;
  if (n > max_elems) throw std::runtime_error(what);
  return static_cast<std::size_t>(n);
}

std::uint8_t ByteReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const auto v = read_le<std::uint16_t>(bytes_, pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  const auto v = read_le<std::uint32_t>(bytes_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  const auto v = read_le<std::uint64_t>(bytes_, pos_);
  pos_ += 8;
  return v;
}

float ByteReader::f32() { return std::bit_cast<float>(u32()); }
double ByteReader::f64() { return std::bit_cast<double>(u64()); }

F32View ByteReader::f32_view() {
  const std::size_t n =
      length_prefix(sizeof(float), "ByteReader: implausible f32 vector length");
  return F32View(raw(n * sizeof(float)));
}

std::span<const std::uint8_t> ByteReader::raw(std::size_t n) {
  need(n);
  const auto view = bytes_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void F32View::copy_into(std::vector<float>& out) const {
  out.resize(size());
  copy_to(out);
}

void F32View::copy_to(std::span<float> out) const {
  BAFFLE_DCHECK(out.size() == size(), "copy_to needs size() floats");
  if (out.empty()) return;  // keep memcpy away from an empty buffer's null base
  if constexpr (kLittleEndian) {
    std::memcpy(out.data(), bytes_.data(), bytes_.size());
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::bit_cast<float>(
          read_le<std::uint32_t>(bytes_, i * sizeof(float)));
    }
  }
}

bool F32View::same_bytes(std::span<const float> v) const {
  if (v.size() != size()) return false;
  if (v.empty()) return true;
  if constexpr (kLittleEndian) {
    return std::memcmp(v.data(), bytes_.data(), bytes_.size()) == 0;
  } else {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (std::bit_cast<std::uint32_t>(v[i]) !=
          read_le<std::uint32_t>(bytes_, i * sizeof(float))) {
        return false;
      }
    }
    return true;
  }
}

}  // namespace baffle
