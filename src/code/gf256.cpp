#include "code/gf256.hpp"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HYPERCAST_GF_X86 1
#endif

namespace hypercast::code {

namespace detail {

Gf256Tables::Gf256Tables() {
  // Generate the multiplicative group: exp[i] = 2^i under 0x11d. The
  // group has order 255, so exp[255] wraps back to 1; the table is
  // doubled to 510 valid entries so mul can index exp[log a + log b]
  // without reducing the exponent sum mod 255.
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp[i] = static_cast<std::uint8_t>(x);
    log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never read; keep the table deterministic

  for (unsigned a = 0; a < 256; ++a) {
    mul[a][0] = 0;
    if (a == 0) continue;
    for (unsigned b = 1; b < 256; ++b) {
      mul[a][b] = exp[log[a] + log[b]];
    }
  }
  for (unsigned b = 0; b < 256; ++b) mul[0][b] = 0;
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned i = 0; i < 16; ++i) mul_hi[a][i] = mul[a][i << 4];
  }
}

const Gf256Tables& gf_tables() {
  static const Gf256Tables tables;
  return tables;
}

void gf_addmul_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::uint8_t c, std::size_t n) {
  const std::uint8_t* row = gf_tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void gf_mul_row_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       std::uint8_t c, std::size_t n) {
  const std::uint8_t* row = gf_tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

}  // namespace detail

std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  assert(b != 0 && "gf_div: division by zero");
  if (a == 0) return 0;
  const detail::Gf256Tables& t = detail::gf_tables();
  return t.exp[255 + t.log[a] - t.log[b]];
}

std::uint8_t gf_inv(std::uint8_t a) {
  assert(a != 0 && "gf_inv: zero has no inverse");
  const detail::Gf256Tables& t = detail::gf_tables();
  return t.exp[255 - t.log[a]];
}

std::uint8_t gf_pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const detail::Gf256Tables& t = detail::gf_tables();
  return t.exp[(static_cast<unsigned>(t.log[a]) * e) % 255];
}

namespace {

#ifdef HYPERCAST_GF_X86

bool have_avx2() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return yes;
}

// The AVX2 bodies: whole 32-byte blocks only, returning how many bytes
// they covered so the scalar loop finishes the tail. Each source byte
// s is split into nibbles and both are looked up in the constant's
// 16-entry product tables (broadcast to both 128-bit lanes, as PSHUFB
// shuffles within a lane): c * s == lo[s & 15] ^ hi[s >> 4]. Loads and
// stores are unaligned; dst == src is safe because every block is
// loaded before it is stored. Aligned to a cache line so their loop
// layout does not shift with whatever code links ahead of them.
template <bool kAccumulate>
[[gnu::target("avx2"), gnu::aligned(64)]] std::size_t mul_avx2(
    std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
    std::size_t n) {
  const detail::Gf256Tables& t = detail::gf_tables();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.mul[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.mul_hi[c])));
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const std::size_t body = n & ~std::size_t{31};
  for (std::size_t i = 0; i < body; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, nibble)),
        _mm256_shuffle_epi8(
            hi, _mm256_and_si256(_mm256_srli_epi16(s, 4), nibble)));
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    if constexpr (kAccumulate) p = _mm256_xor_si256(p, _mm256_loadu_si256(d));
    _mm256_storeu_si256(d, p);
  }
  return body;
}

[[gnu::target("avx2"), gnu::aligned(64)]] std::size_t xor_avx2(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  const std::size_t body = n & ~std::size_t{31};
  for (std::size_t i = 0; i < body; i += 32) {
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(
        d, _mm256_xor_si256(_mm256_loadu_si256(d),
                            _mm256_loadu_si256(
                                reinterpret_cast<const __m256i*>(src + i))));
  }
  return body;
}

#endif  // HYPERCAST_GF_X86

}  // namespace

void gf_addmul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n) {
  if (c == 0 || n == 0) return;
  std::size_t done = 0;
#ifdef HYPERCAST_GF_X86
  if (have_avx2()) {
    done = c == 1 ? xor_avx2(dst, src, n) : mul_avx2<true>(dst, src, c, n);
  }
#endif
  detail::gf_addmul_scalar(dst + done, src + done, c, n - done);
}

void gf_mul_row(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n) {
  if (n == 0) return;
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memmove(dst, src, n);
    return;
  }
  std::size_t done = 0;
#ifdef HYPERCAST_GF_X86
  if (have_avx2()) done = mul_avx2<false>(dst, src, c, n);
#endif
  detail::gf_mul_row_scalar(dst + done, src + done, c, n - done);
}

}  // namespace hypercast::code
