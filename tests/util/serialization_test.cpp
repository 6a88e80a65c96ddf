#include "util/serialization.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "util/rng.hpp"

namespace baffle {
namespace {

TEST(Serialization, RoundTripPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f32(3.5f);
  w.f64(-2.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.done());
}

TEST(Serialization, RoundTripFloatVector) {
  ByteWriter w;
  const std::vector<float> v{1.0f, -2.5f, 0.0f,
                             std::numeric_limits<float>::max()};
  w.f32_span(v);
  ByteReader r(w.bytes());
  std::vector<float> out;
  r.f32_view().copy_into(out);
  EXPECT_EQ(out, v);
  EXPECT_TRUE(r.done());
}

TEST(Serialization, RoundTripEmptyVector) {
  ByteWriter w;
  w.f32_span({});
  ByteReader r(w.bytes());
  std::vector<float> out{1.0f};
  r.f32_view().copy_into(out);
  EXPECT_TRUE(out.empty());
}

TEST(Serialization, PreservesFloatBitPatterns) {
  ByteWriter w;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  w.f32(nan);
  w.f32(inf);
  w.f32(-0.0f);
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isnan(r.f32()));
  EXPECT_EQ(r.f32(), inf);
  const float neg_zero = r.f32();
  EXPECT_EQ(neg_zero, 0.0f);
  EXPECT_TRUE(std::signbit(neg_zero));
}

TEST(Serialization, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(Serialization, ImplausibleVectorLengthThrows) {
  ByteWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // absurd length
  ByteReader r(w.bytes());
  std::vector<float> out;
  EXPECT_THROW(r.f32_view().copy_into(out), std::runtime_error);
}

TEST(Serialization, ImplausibleStringLengthThrows) {
  // Named for the byte-string reader this check was first written for.
  // The guard is length_prefix's, which f32_view shares: a prefix
  // claiming 1 MiB of payload when nothing follows is rejected before
  // any allocation.
  ByteWriter w;
  w.u64((std::uint64_t{1} << 20) / sizeof(float));
  ByteReader r(w.bytes());
  std::vector<float> out;
  EXPECT_THROW(r.f32_view().copy_into(out), std::runtime_error);
  EXPECT_TRUE(out.empty());
}

TEST(Serialization, RemainingTracksPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.done());
}

/// Randomized round-trip property: arbitrary interleavings of writes
/// decode back exactly.
class SerializationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationFuzz, RandomRoundTrip) {
  baffle::Rng rng(GetParam());
  ByteWriter w;
  struct Op {
    int kind;
    std::uint64_t u;
    float f;
    std::vector<float> vec;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Op> ops;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.uniform_int(0, 3));
    switch (op.kind) {
      case 0:
        op.u = rng.next_u64();
        w.u64(op.u);
        break;
      case 1:
        op.f = static_cast<float>(rng.normal(0.0, 1e6));
        w.f32(op.f);
        break;
      case 2: {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 16));
        op.vec.resize(len);
        for (auto& x : op.vec) x = static_cast<float>(rng.normal());
        w.f32_span(op.vec);
        break;
      }
      case 3: {
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, 12));
        op.bytes.resize(len);
        for (auto& b : op.bytes) {
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        w.raw(op.bytes);
        break;
      }
    }
    ops.push_back(std::move(op));
  }
  ByteReader r(w.bytes());
  for (const auto& op : ops) {
    switch (op.kind) {
      case 0: EXPECT_EQ(r.u64(), op.u); break;
      case 1: EXPECT_EQ(r.f32(), op.f); break;
      case 2: {
        std::vector<float> vec;
        r.f32_view().copy_into(vec);
        EXPECT_EQ(vec, op.vec);
        break;
      }
      case 3: {
        const auto view = r.raw(op.bytes.size());
        EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
                  op.bytes);
        break;
      }
    }
  }
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Serialization, RoundTripU16) {
  ByteWriter w;
  w.u16(0xBEEF);
  w.u16(0);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16(), 0xBEEFu);
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(Serialization, RawRoundTripsAndAliasesInput) {
  ByteWriter w;
  const std::vector<std::uint8_t> payload{9, 8, 7};
  w.raw(payload);
  const auto& bytes = w.bytes();
  ByteReader r(bytes);
  const auto view = r.raw(3);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[1], 8);
  EXPECT_EQ(view.data(), bytes.data());  // zero-copy: aliases the input
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.position(), 3u);
}

TEST(Serialization, RawPastEndThrows) {
  ByteWriter w;
  w.u8(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.raw(2), std::out_of_range);
  EXPECT_EQ(r.position(), 0u);  // nothing consumed on failure
}

TEST(Serialization, F32VecIntoReplacesPriorContents) {
  ByteWriter w;
  w.f32_span(std::vector<float>{1.0f, 2.0f});
  ByteReader r(w.bytes());
  std::vector<float> out{9.0f, 9.0f, 9.0f, 9.0f, 9.0f};
  r.f32_view().copy_into(out);
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f}));
}

TEST(Serialization, CounterCountsWhatTheWriterWrites) {
  const auto write_all = [](auto& w) {
    w.u8(1);
    w.u32(3);
    w.u64(4);
    w.f64(-2.5);
    w.f32_span(std::vector<float>{1.0f, 2.0f, 3.0f});
    w.f32_span({});
  };
  ByteWriter writer;
  ByteCounter counter;
  write_all(writer);
  write_all(counter);
  EXPECT_EQ(counter.size(), writer.size());
}

TEST(Serialization, F32ViewReadsInPlaceAtAnyAlignment) {
  const float nan = std::bit_cast<float>(std::uint32_t{0x7fc00009});
  const std::vector<float> v{1.0f, -0.0f, nan};
  ByteWriter w;
  w.u8(7);  // puts the payload at an odd offset
  w.f32_span(v);
  const std::vector<std::uint8_t> bytes = w.take();
  ByteReader r(bytes);
  r.u8();
  const F32View view = r.f32_view();
  EXPECT_TRUE(r.done());
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.bytes().data(), bytes.data() + 9);  // aliases the input

  // Bit-for-bit comparison: -0 is not +0, a NaN matches only its bits.
  EXPECT_TRUE(view.same_bytes(v));
  std::vector<float> other = v;
  other[1] = 0.0f;
  EXPECT_FALSE(view.same_bytes(other));
  other = v;
  other[2] = std::bit_cast<float>(std::uint32_t{0x7fc0000a});
  EXPECT_FALSE(view.same_bytes(other));
  EXPECT_FALSE(view.same_bytes(std::span(v).first(2)));

  std::vector<float> out;
  view.copy_into(out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(v[i]));
  }
}

TEST(Serialization, DenormalsSurviveRoundTrip) {
  ByteWriter w;
  const float denorm = std::numeric_limits<float>::denorm_min();
  w.f32_span(std::vector<float>{denorm, -denorm});
  ByteReader r(w.bytes());
  std::vector<float> v;
  r.f32_view().copy_into(v);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(v[0]),
            std::bit_cast<std::uint32_t>(denorm));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(v[1]),
            std::bit_cast<std::uint32_t>(-denorm));
}

// Truncation sweep: a buffer that exercises EVERY reader method, cut at
// every possible length. Decoding must fail with the documented
// exceptions at or before the cut — never read past the end, never
// crash. (ASan turns any over-read into a hard failure.)
TEST(Serialization, TruncationSweepCoversEveryReaderMethod) {
  ByteWriter w;
  w.u8(1);
  w.u16(2);
  w.u32(3);
  w.u64(4);
  w.f32(1.5f);
  w.f64(-2.5);
  w.f32_span(std::vector<float>{1.0f, 2.0f, 3.0f});
  w.raw(std::vector<std::uint8_t>{0xAA, 0xBB});
  const std::vector<std::uint8_t> full = w.take();

  const auto decode_all = [](std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    r.u8();
    r.u16();
    r.u32();
    r.u64();
    r.f32();
    r.f64();
    std::vector<float> vec;
    r.f32_view().copy_into(vec);
    r.raw(2);
    return r.done();
  };
  ASSERT_TRUE(decode_all(full));

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE(cut);
    const std::span<const std::uint8_t> prefix(full.data(), cut);
    bool threw = false;
    try {
      decode_all(prefix);
    } catch (const std::out_of_range&) {
      threw = true;
    } catch (const std::runtime_error&) {
      threw = true;  // a cut inside a length prefix reads as implausible
    }
    EXPECT_TRUE(threw);
  }
}

// Hostile length prefixes chosen so that n * sizeof(float) or pos_ + n
// wraps 64-bit arithmetic if computed before validation; the guard must
// compare against remaining() first and throw instead.
TEST(Serialization, OverflowingLengthPrefixCannotWrap) {
  const std::uint64_t hostile[] = {
      std::uint64_t{1} << 62,
      (std::uint64_t{1} << 62) + 1,
      std::numeric_limits<std::uint64_t>::max() / 4,
      std::numeric_limits<std::uint64_t>::max() - 3,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (const std::uint64_t n : hostile) {
    SCOPED_TRACE(n);
    ByteWriter w;
    w.u64(n);
    w.u32(0);  // a few real bytes after the prefix
    ByteReader r(w.bytes());
    std::vector<float> out;
    EXPECT_THROW(r.f32_view().copy_into(out), std::runtime_error);
    EXPECT_TRUE(out.empty());  // nothing was allocated or written
  }
}

TEST(Serialization, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[3], 0x01);
}

}  // namespace
}  // namespace baffle
