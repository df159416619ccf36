// Unit tests for the common substrate: serialization, rings, sequence
// arithmetic, RNG determinism, statistics, CRC.
#include <gtest/gtest.h>

#include "common/buffer.hpp"
#include "common/crc32.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/seqnum.hpp"
#include "common/stats.hpp"

namespace amoeba {
namespace {

TEST(Buffer, WriterReaderRoundTrip) {
  BufWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("hello");
  w.bytes(make_pattern_buffer(17));
  const Buffer buf = std::move(w).take();

  BufReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(check_pattern_buffer(r.bytes()));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, ShortReadTurnsReaderBadInsteadOfUb) {
  const Buffer buf = {1, 2, 3};
  BufReader r(buf);
  EXPECT_EQ(r.u32(), 0u);  // only 3 bytes available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays bad
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, LengthPrefixedFieldRejectsTruncation) {
  BufWriter w;
  w.str("this string is long");
  Buffer buf = std::move(w).take();
  buf.erase(buf.end() - 5, buf.end());  // chop the tail
  BufReader r(buf);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, PatchU32) {
  BufWriter w;
  w.u32(0);
  w.u32(7);
  w.patch_u32(0, 0xCAFEBABE);
  BufReader r(w.view());
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u32(), 7u);
}

TEST(Buffer, PatternBufferDetectsCorruption) {
  Buffer b = make_pattern_buffer(64);
  EXPECT_TRUE(check_pattern_buffer(b));
  b[40] ^= 1;
  EXPECT_FALSE(check_pattern_buffer(b));
}

TEST(RingBuffer, PushPopFifo) {
  RingBuffer<int> r(4);
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.try_push(i));
  EXPECT_TRUE(r.full());
  EXPECT_FALSE(r.try_push(99)) << "push on full ring must fail";
  for (int i = 0; i < 4; ++i) {
    auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(r.try_pop().has_value());
}

TEST(RingBuffer, WrapsAroundManyTimes) {
  RingBuffer<int> r(3);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    while (r.try_push(next_in)) ++next_in;
    EXPECT_TRUE(r.full());
    auto v = r.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
}

TEST(RingBuffer, RandomAccessFromHead) {
  RingBuffer<int> r(4);
  r.try_push(10);
  r.try_push(20);
  r.try_pop();
  r.try_push(30);
  EXPECT_EQ(r.at(0), 20);
  EXPECT_EQ(r.at(1), 30);
  ASSERT_NE(r.front(), nullptr);
  EXPECT_EQ(*r.front(), 20);
}

TEST(SeqNum, OrdinaryOrdering) {
  EXPECT_TRUE(seq_lt(1, 2));
  EXPECT_TRUE(seq_le(2, 2));
  EXPECT_TRUE(seq_gt(3, 2));
  EXPECT_FALSE(seq_lt(2, 2));
}

TEST(SeqNum, WrapAroundOrdering) {
  const SeqNum near_max = 0xFFFFFFFFu;
  EXPECT_TRUE(seq_lt(near_max, 1)) << "serial arithmetic across the wrap";
  EXPECT_TRUE(seq_gt(1, near_max));
  EXPECT_EQ(seq_distance(near_max, 1), 2);
  EXPECT_EQ(seq_max(near_max, 1), 1u);
  EXPECT_EQ(seq_min(near_max, 1), near_max);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, UniformRoughlyUniform) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Stats, RunningStatMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.percentile(99), 99.01, 0.01);
  EXPECT_EQ(h.percentile(0), 1.0);
  EXPECT_EQ(h.percentile(100), 100.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(Stats, HistogramAcceptsDurations) {
  Histogram h;
  h.add(Duration::micros(2700));
  EXPECT_NEAR(h.mean(), 2700.0, 1e-9);  // stored in microseconds
}

TEST(Crc32, KnownVector) {
  // CRC-32/IEEE of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(s), 9);
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Crc32, FoldedPathMatchesBytewiseReference) {
  // crc32() folds inputs of 64 bytes and more by carry-less multiplication
  // where the CPU has it, and finishes the last 0-15 bytes bytewise. Every
  // length and start offset must give the reference loop's value.
  constexpr std::size_t kMaxLen = 65536;
  Rng rng(0xC3C32);
  Buffer buf(kMaxLen + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (const std::size_t n :
       {511U, 512U, 513U, 1398U, 8000U, 65535U, 65536U}) {
    lengths.push_back(n);
  }
  for (int i = 0; i < 48; ++i) lengths.push_back(rng.below(kMaxLen + 1));
  for (std::size_t off = 0; off < 16; ++off) {
    for (const std::size_t n : lengths) {
      const std::span<const std::uint8_t> s(buf.data() + off, n);
      ASSERT_EQ(crc32(s), detail::crc32_bytewise(s))
          << "length " << n << " offset " << off;
    }
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  Buffer b = make_pattern_buffer(256);
  const auto before = crc32(b);
  b[128] ^= 0x10;
  EXPECT_NE(crc32(b), before);
}

TEST(TimeTypes, Arithmetic) {
  const Time t{1'000'000};
  const Duration d = Duration::micros(500);
  EXPECT_EQ((t + d).ns, 1'500'000);
  EXPECT_EQ((t - d).ns, 500'000);
  EXPECT_EQ(((t + d) - t).ns, d.ns);
  EXPECT_EQ((d * 3).ns, 1'500'000);
  EXPECT_DOUBLE_EQ(Duration::millis(2).to_micros(), 2000.0);
  EXPECT_LT(Time::zero(), Time::infinity());
}

}  // namespace
}  // namespace amoeba
