#ifndef HYPERCAST_CODE_GF256_HPP
#define HYPERCAST_CODE_GF256_HPP

#include <cstddef>
#include <cstdint>

namespace hypercast::code {

/// GF(2^8) arithmetic — the field under the Reed–Solomon stripe coder
/// (code/rs.hpp, docs/CODING.md).
///
/// Elements are bytes; addition is XOR; multiplication is polynomial
/// multiplication modulo the primitive polynomial
/// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), with 2 as the generator of the
/// multiplicative group. Scalar ops go through log/exp tables (exp is
/// doubled so a*b needs no modular reduction of the exponent sum). The
/// bulk addmul/mul kernels split each source byte into its two nibbles
/// and look both up in 16-entry per-constant product tables
/// (c * s == c * (s & 15) ^ c * (s & 0xf0)); on an AVX2 host (checked
/// once at run time) that is two PSHUFB shuffles per 32 bytes, and the
/// scalar loop over the full 64 KiB product table is the fallback and
/// handles the tail. All tables are built once at first use and are
/// immutable afterwards, so every entry point is thread-safe.

namespace detail {

struct Gf256Tables {
  std::uint8_t exp[512];       ///< exp[i] = 2^i, doubled past 255
  std::uint8_t log[256];       ///< log[0] is unused (log of 0 undefined)
  std::uint8_t mul[256][256];  ///< mul[a][b] = a * b
  std::uint8_t mul_hi[256][16];  ///< mul_hi[a][i] = a * (i << 4)
  Gf256Tables();
};

const Gf256Tables& gf_tables();

/// The scalar reference loops (plain gathers from mul[c], no special
/// cases): what gf_addmul / gf_mul_row fall back to without AVX2 and
/// use for the tail past the last 32-byte block. Exposed so the tests
/// can hold the SIMD path to them byte for byte.
void gf_addmul_scalar(std::uint8_t* dst, const std::uint8_t* src,
                      std::uint8_t c, std::size_t n);
void gf_mul_row_scalar(std::uint8_t* dst, const std::uint8_t* src,
                       std::uint8_t c, std::size_t n);

}  // namespace detail

inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  return detail::gf_tables().mul[a][b];
}

/// a / b. Precondition: b != 0 (asserted in debug builds).
std::uint8_t gf_div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse. Precondition: a != 0.
std::uint8_t gf_inv(std::uint8_t a);

/// a^e (a^0 == 1, including 0^0).
std::uint8_t gf_pow(std::uint8_t a, unsigned e);

/// dst[i] ^= c * src[i] for i < n — the RS encode/decode inner loop.
/// c == 0 is a no-op; c == 1 degenerates to a pure XOR. dst and src
/// are either the same pointer or non-overlapping.
void gf_addmul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
               std::size_t n);

/// dst[i] = c * src[i] for i < n. c == 0 is a memset, c == 1 a memmove;
/// otherwise dst and src are either the same pointer or non-overlapping.
void gf_mul_row(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t n);

}  // namespace hypercast::code

#endif  // HYPERCAST_CODE_GF256_HPP
