// SpscRing, the lock-free ring protocol tracing is built on
// (check::TraceRing). Functional coverage plus two-thread stress cases
// that the TSan CI job runs — the ring's acquire/release protocol is what
// makes draining a live member's trace from another thread race-free.
#include "common/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "check/trace.hpp"
#include "common/buffer.hpp"

namespace amoeba {
namespace {

TEST(SpscRing, PushPopFifo) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  for (int i = 0; i < 5; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(SpscRing, FullRingRefusesPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int v = 99;
  EXPECT_FALSE(ring.try_push(std::move(v)));
  EXPECT_EQ(v, 99) << "refused push must leave the value intact";
  // Draining one slot makes room again.
  EXPECT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(std::move(v)));
}

TEST(SpscRing, WrapAroundManyTimes) {
  SpscRing<std::size_t> ring(4);
  std::size_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (ring.try_push(std::size_t{next_in})) ++next_in;
    while (auto v = ring.try_pop()) {
      EXPECT_EQ(*v, next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_GT(next_out, 3000u);
}

TEST(SpscRing, MoveOnlyElementsReleaseOnPop) {
  // The production payload is a BufView; popping must drop the slot's
  // reference promptly so receive buffers recycle to the pool.
  SpscRing<BufView> ring(4);
  BufView view(SharedBuffer::copy_of(make_pattern_buffer(64)));
  ASSERT_TRUE(ring.try_push(BufView(view)));
  {
    auto popped = ring.try_pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_TRUE(check_pattern_buffer(popped->span()));
  }
  // unique_ptr works too (compile-time proof of move-only support).
  SpscRing<std::unique_ptr<int>> uring(2);
  EXPECT_TRUE(uring.try_push(std::make_unique<int>(7)));
  auto p = uring.try_pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(**p, 7);
}

TEST(SpscRing, ProducerConsumerStress) {
  // One producer blasts a monotone sequence through a small ring while a
  // consumer drains it: every popped value must arrive in order with no
  // tears. Run under TSan this is the proof of the head/tail protocol.
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring(64);
  std::atomic<bool> fail{false};

  std::thread consumer([&] {
    std::uint64_t expect = 0;
    while (expect < kItems) {
      auto v = ring.try_pop();
      if (!v.has_value()) {
        std::this_thread::yield();
        continue;
      }
      if (*v != expect) {
        fail.store(true);
        return;
      }
      ++expect;
    }
  });

  for (std::uint64_t i = 0; i < kItems;) {
    if (ring.try_push(std::uint64_t{i})) {
      ++i;
    } else {
      std::this_thread::yield();
    }
    if (fail.load(std::memory_order_relaxed)) break;
  }
  consumer.join();
  EXPECT_FALSE(fail.load()) << "consumer saw an out-of-order value";
}

TEST(SpscRing, ProducerConsumerStressWithViews) {
  // Same race surface, but with refcounted payloads: the backing blocks
  // cross threads through the ring and the last unref happens on the
  // consumer side. ASan/TSan hold this to the pool's thread-safety claims.
  constexpr int kItems = 20000;
  SpscRing<BufView> ring(32);
  std::atomic<int> consumed{0};

  std::thread consumer([&] {
    while (consumed.load(std::memory_order_relaxed) < kItems) {
      auto v = ring.try_pop();
      if (!v.has_value()) {
        std::this_thread::yield();
        continue;
      }
      if (v->size() == 24) consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int i = 0; i < kItems;) {
    SharedBuffer b = SharedBuffer::allocate(24);
    std::memset(b.data(), 0x5A, 24);
    if (ring.try_push(BufView(std::move(b)))) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), kItems);
}

TEST(TraceRing, OneEventDrainsGrowGeometrically) {
  // The harnesses drain after every engine step, so most drains carry a
  // single event. Appending must stay amortized O(1): a drain that
  // reserves exactly size() + n reallocates and copies the whole history
  // every time, which makes trace collection quadratic in run length.
  constexpr int kDrains = 100000;
  constexpr int kMaxReallocations = 64;
  check::TraceRing ring;
  std::vector<check::TraceEvent> out;
  const check::TraceEvent* data = out.data();
  int reallocations = 0;
  for (int i = 0; i < kDrains; ++i) {
    check::TraceEvent e;
    e.msg_id = static_cast<std::uint32_t>(i);
    ring.emit(e);
    ASSERT_EQ(ring.drain(out), 1u);
    if (out.data() != data) {
      data = out.data();
      ASSERT_LT(++reallocations, kMaxReallocations) << "after " << i + 1
                                                    << " drains";
    }
  }
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kDrains));
  EXPECT_EQ(out.back().msg_id, static_cast<std::uint32_t>(kDrains - 1));
  EXPECT_EQ(ring.dropped(), 0u);
}

}  // namespace
}  // namespace amoeba
