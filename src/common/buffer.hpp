// Byte buffers, zero-copy views, and bounds-checked cursor serialization.
//
// Every protocol header in the stack (Ethernet framing metadata, FLIP,
// group, RPC) is encoded with `BufWriter` and decoded with `BufReader`.
// Encoding is little-endian and explicit-width; a decode past the end turns
// the reader bad instead of invoking UB, so garbled packets are rejected
// rather than trusted.
//
// The hot path (group wire codec, FLIP fragments, transport queues) moves
// payloads as `BufView`: a ref-counted slice (offset + length) over an
// immutable backing allocation. Copying a view bumps a refcount; the bytes
// themselves are written exactly once, into a pooled allocation obtained
// via `SharedBuffer`. See docs/PERF.md for the ownership model.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace amoeba {

/// Owned, contiguous byte payload. Protocol code that is off the hot path
/// still moves these around; the hot path wraps them into `BufView`s
/// (adoption is zero-copy: the vector is moved into the backing block).
using Buffer = std::vector<std::uint8_t>;

/// Make a buffer of `n` bytes with a deterministic fill pattern (useful for
/// tests and workload generators that want verifiable payloads).
Buffer make_pattern_buffer(std::size_t n, std::uint8_t seed = 0xA5);

/// Returns true iff `b` matches the pattern `make_pattern_buffer` produces.
bool check_pattern_buffer(std::span<const std::uint8_t> b,
                          std::uint8_t seed = 0xA5);

// --- Little-endian scalar stores/loads for direct-offset codecs -----------
// The byte loops compile to single unaligned stores on every target we
// build for; writing them this way keeps the code UB-free on strict-
// alignment targets.

inline void store_le16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint16_t load_le16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

namespace detail {

/// Ref-counted backing block behind `SharedBuffer`/`BufView`.
///
/// Pooled and oversize blocks are a single `operator new` of
/// `sizeof(BufBacking) + capacity`, with the byte storage immediately after
/// the header (`data == this + 1`). Adopted blocks wrap a moved-in `Buffer`
/// (`data == vec.data()`), so wrapping a vector never copies its bytes.
struct BufBacking {
  std::atomic<std::size_t> refs{1};
  /// Pool size class (< kNumPoolClasses), kHeapClass, or kAdoptedClass.
  std::uint8_t cls{0};
  std::size_t cap{0};
  std::uint8_t* data{nullptr};
  Buffer vec;  // engaged only for adopted blocks
};

inline constexpr std::uint8_t kHeapClass = 0xFE;
inline constexpr std::uint8_t kAdoptedClass = 0xFF;

/// Allocate a mutable backing block of at least `n` bytes, preferring the
/// calling thread's freelist pool. refs == 1 on return. Never null (the
/// heap path throws), which also tells the compiler that a freshly
/// allocated SharedBuffer's data() is a real block.
[[gnu::returns_nonnull]] BufBacking* acquire_backing(std::size_t n);
/// Wrap a vector's storage without copying. refs == 1 on return.
BufBacking* adopt_backing(Buffer&& vec);
/// Return a block to the pool or free it. Called when refs hits zero.
void dispose_backing(BufBacking* b) noexcept;

inline void ref(BufBacking* b) noexcept {
  if (b != nullptr) b->refs.fetch_add(1, std::memory_order_relaxed);
}
inline void unref(BufBacking* b) noexcept {
  if (b != nullptr &&
      b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    dispose_backing(b);
  }
}

/// Per-thread pool counters, for tests and diagnostics.
struct PoolStats {
  std::uint64_t pool_hits{0};    // acquire served from the freelist
  std::uint64_t pool_misses{0};  // acquire that had to allocate
  std::uint64_t pool_returns{0}; // release that refilled the freelist
};
PoolStats pool_stats() noexcept;

}  // namespace detail

class BufView;

/// Exclusively-owned mutable buffer over a pooled backing block: the write
/// side of the zero-copy path. Encoders allocate one, fill it, and convert
/// it (rvalue, refcount-free) into an immutable `BufView`. Move-only so the
/// mutable phase can never alias a published view.
class SharedBuffer {
 public:
  SharedBuffer() = default;
  SharedBuffer(const SharedBuffer&) = delete;
  SharedBuffer& operator=(const SharedBuffer&) = delete;
  SharedBuffer(SharedBuffer&& o) noexcept : b_(o.b_), size_(o.size_) {
    o.b_ = nullptr;
    o.size_ = 0;
  }
  SharedBuffer& operator=(SharedBuffer&& o) noexcept {
    if (this != &o) {
      detail::unref(b_);
      b_ = o.b_;
      size_ = o.size_;
      o.b_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  ~SharedBuffer() { detail::unref(b_); }

  /// A writable buffer of exactly `n` bytes (uninitialized contents).
  static SharedBuffer allocate(std::size_t n) {
    SharedBuffer s;
    s.b_ = detail::acquire_backing(n);
    s.size_ = n;
    return s;
  }
  /// A writable buffer initialized with a copy of `src`.
  static SharedBuffer copy_of(std::span<const std::uint8_t> src) {
    SharedBuffer s = allocate(src.size());
    if (!src.empty()) std::memcpy(s.data(), src.data(), src.size());
    return s;
  }

  std::uint8_t* data() noexcept { return b_ != nullptr ? b_->data : nullptr; }
  const std::uint8_t* data() const noexcept {
    return b_ != nullptr ? b_->data : nullptr;
  }
  std::size_t size() const noexcept { return size_; }
  /// Usable bytes in the backing block (>= size()).
  std::size_t capacity() const noexcept { return b_ != nullptr ? b_->cap : 0; }
  bool empty() const noexcept { return size_ == 0; }
  /// Shrink (or, within capacity, grow) the logical size without touching
  /// the allocation — used by the receive ring after recvmmsg reports the
  /// actual datagram length.
  void resize(std::size_t n) noexcept {
    size_ = n <= capacity() ? n : capacity();
  }

 private:
  friend class BufView;
  detail::BufBacking* b_{nullptr};
  std::size_t size_{0};
};

/// Immutable, ref-counted slice over a backing allocation.
///
/// Copying a BufView bumps the backing refcount; the bytes are shared and
/// must never be mutated once any view exists (the fault injector makes a
/// private copy before garbling). A view keeps its backing alive, so it is
/// always safe to hold — e.g. the sequencer history and a retransmission in
/// flight alias the same datagram bytes.
class BufView {
 public:
  BufView() = default;
  BufView(const BufView& o) noexcept
      : b_(o.b_), data_(o.data_), size_(o.size_) {
    detail::ref(b_);
  }
  BufView(BufView&& o) noexcept : b_(o.b_), data_(o.data_), size_(o.size_) {
    o.b_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  /// Adopt an owned vector without copying its bytes (implicit so existing
  /// `view = std::move(buffer)` call sites keep working).
  BufView(Buffer&& v) {  // NOLINT(google-explicit-constructor)
    if (!v.empty()) {
      b_ = detail::adopt_backing(std::move(v));
      data_ = b_->data;
      size_ = b_->cap;
    }
  }
  /// Freeze a filled SharedBuffer into an immutable view (refcount-free).
  BufView(SharedBuffer&& s) noexcept {  // NOLINT(google-explicit-constructor)
    b_ = s.b_;
    data_ = b_ != nullptr ? b_->data : nullptr;
    size_ = s.size_;
    s.b_ = nullptr;
    s.size_ = 0;
  }
  BufView& operator=(const BufView& o) noexcept {
    if (this != &o) {
      detail::ref(o.b_);
      detail::unref(b_);
      b_ = o.b_;
      data_ = o.data_;
      size_ = o.size_;
    }
    return *this;
  }
  BufView& operator=(BufView&& o) noexcept {
    if (this != &o) {
      detail::unref(b_);
      b_ = o.b_;
      data_ = o.data_;
      size_ = o.size_;
      o.b_ = nullptr;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  ~BufView() { detail::unref(b_); }

  /// A view over a fresh private copy of `src` (when sharing is unwanted or
  /// the source lifetime is not controlled).
  static BufView copy_of(std::span<const std::uint8_t> src) {
    return BufView(SharedBuffer::copy_of(src));
  }

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

  std::span<const std::uint8_t> span() const noexcept {
    return {data_, size_};
  }

  /// Slice sharing the same backing (+1 ref). Out-of-range clamps to empty.
  BufView subview(std::size_t offset, std::size_t len) const& {
    BufView v(*this);
    v.narrow(offset, len);
    return v;
  }
  /// Rvalue slice: steals this view's reference — no atomic op. This is the
  /// decode hot path (`decode_wire` carves the payload out of the datagram).
  BufView subview(std::size_t offset, std::size_t len) && noexcept {
    BufView v(std::move(*this));
    v.narrow(offset, len);
    return v;
  }

  void clear() noexcept {
    detail::unref(b_);
    b_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  friend bool operator==(const BufView& a, const BufView& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator==(const BufView& a, const Buffer& b) noexcept {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data(), a.size_) == 0);
  }

 private:
  void narrow(std::size_t offset, std::size_t len) noexcept {
    if (offset > size_) offset = size_;
    if (len > size_ - offset) len = size_ - offset;
    data_ += offset;
    size_ = len;
  }

  detail::BufBacking* b_{nullptr};
  const std::uint8_t* data_{nullptr};
  std::size_t size_{0};
};

/// Append-only little-endian encoder over an owned Buffer.
class BufWriter {
 public:
  BufWriter() = default;
  /// Reserve capacity up front to avoid reallocation in hot paths.
  explicit BufWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// Raw bytes, no length prefix (use `bytes` for self-describing fields).
  void raw(std::span<const std::uint8_t> data) {
    append(data.data(), data.size());
  }
  /// u32 length prefix followed by the bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  /// u32 length prefix followed by UTF-8 bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  std::size_t size() const noexcept { return buf_.size(); }
  /// Overwrite a previously written u32 at `offset` (for patch-up lengths).
  void patch_u32(std::size_t offset, std::uint32_t v);

  Buffer take() && { return std::move(buf_); }
  std::span<const std::uint8_t> view() const noexcept { return buf_; }

 private:
  template <typename T>
  void append_le(T v) {
    std::uint8_t le[sizeof(T)] = {};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    append(le, sizeof(T));
  }
  /// Out of line: inlined into callers with constant sizes, vector growth
  /// draws false overflow reports from GCC 12 at -O3.
  void append(const void* p, std::size_t n);

  Buffer buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
///
/// Any read past the end sets the *bad* flag and returns zeros; callers
/// check `ok()` once after decoding a full header instead of after each
/// field. This mirrors how the kernel validates a packet before acting.
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }

  /// Read a u32-length-prefixed byte field into an owned Buffer.
  Buffer bytes();
  /// Read a u32-length-prefixed string.
  std::string str();
  /// Borrow `n` raw bytes without copying; empty span (and bad) if short.
  std::span<const std::uint8_t> raw(std::size_t n);
  /// Remaining unread bytes.
  std::span<const std::uint8_t> rest() const {
    return bad_ ? std::span<const std::uint8_t>{} : data_.subspan(pos_);
  }
  /// Cursor position (bytes consumed so far); 0 if the reader went bad.
  std::size_t position() const noexcept { return bad_ ? 0 : pos_; }

  bool ok() const noexcept { return !bad_; }
  std::size_t remaining() const noexcept { return bad_ ? 0 : data_.size() - pos_; }

 private:
  template <typename T>
  T read_le() {
    if (bad_ || data_.size() - pos_ < sizeof(T)) {
      bad_ = true;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool bad_{false};
};

}  // namespace amoeba
