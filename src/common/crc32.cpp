#include "common/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace amoeba {
namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

/// Advance the (pre-inverted) CRC state over `data`, one byte at a time.
std::uint32_t update_bytewise(std::uint32_t c,
                              std::span<const std::uint8_t> data) noexcept {
  for (const std::uint8_t b : data) {
    c = kTable[(c ^ b) & 0xFFU] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

/// Shortest input worth folding: the fold starts from four 16-byte lanes.
constexpr std::size_t kFoldMin = 64;

/// One fold step: carry-less multiply both halves of `x` by the pair of
/// constants in `k` (x^(n+64) and x^n mod P, bit-reflected) and add the
/// next 16 bytes `d`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i x,
                                                              __m128i k,
                                                              __m128i d) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       d);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance the CRC state `c` over `len` bytes at `p`; `len` is at least
/// kFoldMin and a multiple of 16. The constants are the Intel paper's for
/// the reflected IEEE polynomial P = 0x104C11DB7: fold by 512 bits, fold by
/// 128 bits, reduce 96 -> 64 bits, then a Barrett reduction to 32.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t update_clmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t len) noexcept {
  const __m128i k512 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k128 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k64 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i barrett = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, 0, 0);

  __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold16(x0, k512, load16(p));
    x1 = fold16(x1, k512, load16(p + 16));
    x2 = fold16(x2, k512, load16(p + 32));
    x3 = fold16(x3, k512, load16(p + 48));
  }
  x0 = fold16(x0, k128, x1);
  x0 = fold16(x0, k128, x2);
  x0 = fold16(x0, k128, x3);
  for (; len >= 16; p += 16, len -= 16) {
    x0 = fold16(x0, k128, load16(p));
  }

  // 128 -> 64 bits (this also appends the 32 zero bits the CRC needs).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k128, 0x10));
  // 96 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00));
  // Barrett reduction: 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

bool have_clmul() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = 0xFFFFFFFFU;
#if defined(__x86_64__)
  if (data.size() >= kFoldMin && have_clmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    c = update_clmul(c, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  return update_bytewise(c, data) ^ 0xFFFFFFFFU;
}

namespace detail {
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) noexcept {
  return update_bytewise(0xFFFFFFFFU, data) ^ 0xFFFFFFFFU;
}
}  // namespace detail

}  // namespace amoeba
