#include "common/buffer.hpp"

#include <array>
#include <new>

namespace amoeba {

Buffer make_pattern_buffer(std::size_t n, std::uint8_t seed) {
  Buffer b(n);
  std::uint8_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    // xorshift-style byte mixer: cheap, full-period enough for test fills.
    x = static_cast<std::uint8_t>(x * 167 + 13);
    b[i] = x;
  }
  return b;
}

bool check_pattern_buffer(std::span<const std::uint8_t> b, std::uint8_t seed) {
  std::uint8_t x = seed;
  for (std::size_t i = 0; i < b.size(); ++i) {
    x = static_cast<std::uint8_t>(x * 167 + 13);
    if (b[i] != x) return false;
  }
  return true;
}

void BufWriter::append(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

void BufWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) return;
  for (std::size_t i = 0; i < 4; ++i) {
    buf_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

Buffer BufReader::bytes() {
  const std::uint32_t n = u32();
  if (bad_ || remaining() < n) {
    bad_ = true;
    return {};
  }
  Buffer out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::string BufReader::str() {
  const std::uint32_t n = u32();
  if (bad_ || remaining() < n) {
    bad_ = true;
    return {};
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> BufReader::raw(std::size_t n) {
  if (bad_ || remaining() < n) {
    bad_ = true;
    return {};
  }
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

namespace detail {
namespace {

// Size classes cover the traffic the stack actually generates: small
// control messages, a full Ethernet/UDP datagram (group header + 1.4 KiB
// fragment, and the 2 KiB receive-ring slots), a mid-size reassembled
// message, and the protocol's max user payload (64 KiB) plus headers.
constexpr std::array<std::size_t, 4> kClassCaps = {256, 2048, 16384,
                                                   65536 + 512};
constexpr std::size_t kNumPoolClasses = kClassCaps.size();
// Freelist depth per class, sized to the deepest steady-state demand (the
// Lance rx ring of 32 frames plus in-flight history views) without letting
// a burst pin unbounded memory.
constexpr std::size_t kMaxFreePerClass = 64;

/// 0 = pool never constructed on this thread, 1 = alive, 2 = destroyed.
/// Trivially destructible, so it stays readable during thread teardown
/// after the Pool itself has been destructed — late unref()s must not
/// resurrect the freelist.
thread_local int g_pool_state = 0;

void free_block(BufBacking* b) noexcept {
  if (b->cls == kAdoptedClass) {
    delete b;
  } else {
    b->~BufBacking();
    ::operator delete(static_cast<void*>(b));
  }
}

struct Pool {
  std::array<std::vector<BufBacking*>, kNumPoolClasses> free;
  PoolStats stats;

  Pool() { g_pool_state = 1; }
  ~Pool() {
    g_pool_state = 2;
    for (auto& cls : free) {
      for (BufBacking* b : cls) free_block(b);
      cls.clear();
    }
  }
};

Pool& pool() {
  thread_local Pool p;
  return p;
}

BufBacking* new_block(std::uint8_t cls, std::size_t cap) {
  void* mem = ::operator new(sizeof(BufBacking) + cap);
  auto* b = new (mem) BufBacking;
  b->cls = cls;
  b->cap = cap;
  b->data = static_cast<std::uint8_t*>(mem) + sizeof(BufBacking);
  return b;
}

}  // namespace

BufBacking* acquire_backing(std::size_t n) {
  std::uint8_t cls = kHeapClass;
  std::size_t cap = n;
  for (std::size_t c = 0; c < kNumPoolClasses; ++c) {
    if (n <= kClassCaps[c]) {
      cls = static_cast<std::uint8_t>(c);
      cap = kClassCaps[c];
      break;
    }
  }
  if (cls != kHeapClass && g_pool_state != 2) {
    Pool& p = pool();
    auto& freelist = p.free[cls];
    if (!freelist.empty()) {
      BufBacking* b = freelist.back();
      freelist.pop_back();
      b->refs.store(1, std::memory_order_relaxed);
      ++p.stats.pool_hits;
      return b;
    }
    ++p.stats.pool_misses;
  }
  return new_block(cls, cap);
}

BufBacking* adopt_backing(Buffer&& vec) {
  auto* b = new BufBacking;
  b->cls = kAdoptedClass;
  b->vec = std::move(vec);
  b->cap = b->vec.size();
  b->data = b->vec.data();
  return b;
}

void dispose_backing(BufBacking* b) noexcept {
  if (b->cls < kNumPoolClasses && g_pool_state != 2) {
    Pool& p = pool();
    auto& freelist = p.free[b->cls];
    if (freelist.size() < kMaxFreePerClass) {
      freelist.push_back(b);
      ++p.stats.pool_returns;
      return;
    }
  }
  free_block(b);
}

PoolStats pool_stats() noexcept {
  if (g_pool_state == 2) return {};
  return pool().stats;
}

}  // namespace detail
}  // namespace amoeba
