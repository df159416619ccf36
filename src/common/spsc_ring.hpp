// Bounded lock-free single-producer / single-consumer ring.
//
// The repo's one SPSC ring. Protocol event tracing is built on it:
// `check::TraceRing` is an `SpscRing<TraceEvent>` whose producer is a
// member's executor context and whose consumer is the harness or test
// draining the trace, possibly from another thread. Payloads may be
// move-only. The policy is *drop-full*: `try_push` on a full ring refuses
// and leaves the value untouched, and the caller counts the drop, so
// overflow is observable and never blocks the producer.
//
// Memory ordering: the producer publishes a slot with a release store of
// `head_`; the consumer acquires it before reading the slot, and releases
// `tail_` after clearing the slot so the producer may reuse it. Both sides
// keep a cached copy of the opposite index (the Derecho/folly SPSC idiom),
// so the steady-state cost of a push or pop is one relaxed load, one
// store, and zero shared-line ping-pong until the cache goes stale.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace amoeba {

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity = 1024) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false (leaving `v` untouched) when the
  /// consumer lags a full ring behind; the caller owns the drop policy.
  bool try_push(T&& v) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ > mask_) return false;
    }
    slots_[head & mask_] = std::move(v);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Empty ring -> nullopt.
  std::optional<T> try_pop() noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return std::nullopt;
    }
    std::optional<T> v(std::move(slots_[tail & mask_]));
    slots_[tail & mask_] = T{};  // release the slot's resources eagerly
    tail_.store(tail + 1, std::memory_order_release);
    return v;
  }

  /// Racy size estimate (diagnostics only; exact when either side is idle).
  std::size_t size_estimate() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
  }
  bool empty_estimate() const noexcept { return size_estimate() == 0; }

 private:
  std::vector<T> slots_;
  std::size_t mask_{0};
  // Producer-owned line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_{0};
  // Consumer-owned line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_{0};
};

}  // namespace amoeba
