#include "code/gf256.hpp"

#include <cassert>

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
}

const Gf256Tables& gf_tables() {
  static const Gf256Tables tables;
  return tables;
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

// The two byte kernels carry every parity byte, and how fast their table
// loops run depends on where the loop lands within a cache line. Aligning
// them to one keeps that layout fixed whatever code links ahead of them:
// on a 4-vCPU Intel Xeon guest, an unrelated change that moved them by
// 32 bytes cost the stripe_faulted benchmark ~12% of its ops/s.
[[gnu::aligned(64)]] void gf_addmul(std::uint8_t* dst,
                                    const std::uint8_t* src, std::uint8_t c,
                                    std::size_t n) {
  if (c == 0 || n == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const std::uint8_t* row = detail::gf_tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

[[gnu::aligned(64)]] void gf_mul_row(std::uint8_t* dst,
                                     const std::uint8_t* src, std::uint8_t c,
                                     std::size_t n) {
  if (c == 0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0;
    return;
  }
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  const std::uint8_t* row = detail::gf_tables().mul[c];
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

}  // namespace hypercast::code
