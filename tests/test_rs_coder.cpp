// GF(2^8) arithmetic (code/gf256.hpp) and the systematic Reed-Solomon
// erasure coder (code/rs.hpp): field identities against first
// principles, the legacy-XOR contract of the single-parity row, the MDS
// property over every erasure pattern of small codes, and randomized
// round-trip fuzz at the shapes the striped planner actually uses.

#include "code/rs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "code/gf256.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;
using code::RsCode;

/// Reference multiply: shift-and-add modulo 0x11d, no tables.
std::uint8_t slow_mul(std::uint8_t a, std::uint8_t b) {
  unsigned acc = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= 0x11d;
  }
  return static_cast<std::uint8_t>(acc);
}

TEST(Gf256, MulMatchesShiftAndAddReference) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(code::gf_mul(static_cast<std::uint8_t>(a),
                             static_cast<std::uint8_t>(b)),
                slow_mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

TEST(Gf256, FieldIdentities) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(code::gf_mul(x, 1), x);
    EXPECT_EQ(code::gf_mul(x, 0), 0);
    if (a != 0) {
      // Every nonzero element has an inverse and division round-trips.
      EXPECT_EQ(code::gf_mul(x, code::gf_inv(x)), 1) << a;
      EXPECT_EQ(code::gf_div(x, x), 1);
      EXPECT_EQ(code::gf_mul(code::gf_div(x, 7), 7), x);
    }
  }
  // 2 generates the multiplicative group: 255 distinct powers.
  std::vector<bool> seen(256, false);
  std::uint8_t p = 1;
  for (int i = 0; i < 255; ++i) {
    ASSERT_FALSE(seen[p]) << "generator cycle shorter than 255 at " << i;
    seen[p] = true;
    p = code::gf_mul(p, 2);
  }
  EXPECT_EQ(p, 1);  // full cycle
  EXPECT_EQ(code::gf_pow(2, 255), 1);
  EXPECT_EQ(code::gf_pow(0, 0), 1);
  EXPECT_EQ(code::gf_pow(0, 5), 0);
}

TEST(Gf256, AddmulAndMulRowMatchScalarLoop) {
  workload::Rng rng(0x6f256);
  std::vector<std::uint8_t> src(257), dst(257), expect(257);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (const std::uint8_t c : {0, 1, 2, 29, 255}) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = static_cast<std::uint8_t>(i * 31);
      expect[i] = dst[i] ^ code::gf_mul(c, src[i]);
    }
    code::gf_addmul(dst.data(), src.data(), c, dst.size());
    EXPECT_EQ(dst, expect) << "addmul c=" << int{c};
    code::gf_mul_row(dst.data(), src.data(), c, dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i) {
      ASSERT_EQ(dst[i], code::gf_mul(c, src[i])) << "mul_row c=" << int{c};
    }
  }
}

/// Every constant, every length 0..130 and every src/dst misalignment
/// 0..31 against a 32-byte boundary: the dispatched kernels (on an AVX2
/// host, the SIMD body plus the scalar tail) must equal the scalar
/// reference byte for byte, and must not touch a byte outside
/// [dst, dst + n). The dst offset is tied to (src offset + c) mod 32,
/// so across the constants every (src, dst) misalignment pair is run
/// at every length.
TEST(Gf256, KernelsMatchScalarReferenceExhaustively) {
  // The reference itself against gf_mul, every constant x every byte.
  std::array<std::uint8_t, 256> ramp{};
  std::iota(ramp.begin(), ramp.end(), std::uint8_t{0});
  for (unsigned cu = 0; cu < 256; ++cu) {
    const auto c = static_cast<std::uint8_t>(cu);
    std::array<std::uint8_t, 256> prod{};
    std::array<std::uint8_t, 256> acc = ramp;
    code::detail::gf_mul_row_scalar(prod.data(), ramp.data(), c, 256);
    code::detail::gf_addmul_scalar(acc.data(), ramp.data(), c, 256);
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint8_t want = code::gf_mul(c, static_cast<std::uint8_t>(b));
      ASSERT_EQ(prod[b], want) << "c=" << cu << " b=" << b;
      ASSERT_EQ(acc[b], want ^ b) << "c=" << cu << " b=" << b;
    }
  }

  constexpr std::size_t kMaxLen = 130;
  constexpr std::size_t kAlign = 32;
  constexpr std::size_t kBuf = kMaxLen + 2 * kAlign;
  workload::Rng rng(0xa1a2);
  alignas(kAlign) std::array<std::uint8_t, kBuf> src{};
  alignas(kAlign) std::array<std::uint8_t, kBuf> fill{};
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : fill) b = static_cast<std::uint8_t>(rng());
  alignas(kAlign) std::array<std::uint8_t, kBuf> got{};
  alignas(kAlign) std::array<std::uint8_t, kBuf> want{};
  for (unsigned cu = 0; cu < 256; ++cu) {
    const auto c = static_cast<std::uint8_t>(cu);
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      for (std::size_t so = 0; so < kAlign; ++so) {
        const std::size_t dof = (so + cu) % kAlign;
        got = fill;
        want = fill;
        code::gf_addmul(got.data() + dof, src.data() + so, c, n);
        code::detail::gf_addmul_scalar(want.data() + dof, src.data() + so, c,
                                       n);
        ASSERT_EQ(got, want) << "addmul c=" << cu << " n=" << n
                             << " src+" << so << " dst+" << dof;
        got = fill;
        want = fill;
        code::gf_mul_row(got.data() + dof, src.data() + so, c, n);
        code::detail::gf_mul_row_scalar(want.data() + dof, src.data() + so, c,
                                        n);
        ASSERT_EQ(got, want) << "mul_row c=" << cu << " n=" << n
                             << " src+" << so << " dst+" << dof;
      }
    }
  }
  // In place (dst == src), the form gf_mul_row's contract allows.
  for (const std::uint8_t c : {0, 1, 2, 29, 255}) {
    got = src;
    want = src;
    code::gf_mul_row(got.data() + 3, got.data() + 3, c, kMaxLen);
    code::detail::gf_mul_row_scalar(want.data() + 3, want.data() + 3, c,
                                    kMaxLen);
    ASSERT_EQ(got, want) << "in-place mul_row c=" << int{c};
  }
}

std::vector<std::vector<std::uint8_t>> random_stripes(std::size_t m,
                                                      std::size_t width,
                                                      workload::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> data(m);
  for (auto& s : data) {
    s.resize(width);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
  }
  return data;
}

TEST(RsCode, SingleParityRowIsPlainXor) {
  workload::Rng rng(0x1234);
  const std::size_t width = 100;
  const auto data = random_stripes(5, width, rng);
  std::vector<std::vector<std::uint8_t>> parity;
  RsCode(5, 1).encode(data, parity, width);
  ASSERT_EQ(parity.size(), 1u);
  ASSERT_EQ(parity[0].size(), width);
  for (std::size_t i = 0; i < width; ++i) {
    std::uint8_t x = 0;
    for (const auto& s : data) x ^= s[i];
    ASSERT_EQ(parity[0][i], x) << "byte " << i;
  }
}

TEST(RsCode, RejectsBadShapes) {
  EXPECT_THROW(RsCode(0, 1), std::invalid_argument);
  EXPECT_THROW(RsCode(250, 7), std::invalid_argument);
  RsCode ok(4, 2);
  std::vector<std::vector<std::uint8_t>> stripes(6,
                                                 std::vector<std::uint8_t>(8));
  // Three erasures against k = 2.
  const std::size_t three[3] = {0, 1, 2};
  EXPECT_THROW(ok.reconstruct(stripes, three, 8), std::invalid_argument);
  // Repeated / out-of-range indices.
  const std::size_t dup[2] = {1, 1};
  EXPECT_THROW(ok.reconstruct(stripes, dup, 8), std::invalid_argument);
  const std::size_t oob[1] = {6};
  EXPECT_THROW(ok.reconstruct(stripes, oob, 8), std::invalid_argument);
}

/// Exhaustive MDS check: for (m, k) small, EVERY way of losing up to k
/// of the m + k stripes must reconstruct the data exactly.
TEST(RsCode, EveryErasurePatternUpToKRecovers) {
  workload::Rng rng(0xec0de);
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {4, 2}, {3, 3}, {5, 2}, {2, 4}};
  for (const auto& [m, k] : kShapes) {
    const std::size_t width = 33;
    const RsCode rs(m, k);
    const auto data = random_stripes(m, width, rng);
    std::vector<std::vector<std::uint8_t>> parity;
    rs.encode(data, parity, width);
    ASSERT_EQ(parity.size(), k);

    std::vector<std::vector<std::uint8_t>> full = data;
    for (const auto& p : parity) full.push_back(p);
    const std::size_t total = m + k;
    // Every subset of [0, m + k) with |S| <= k, by bitmask.
    for (std::uint32_t mask = 0; mask < (1u << total); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > k) continue;
      std::vector<std::size_t> missing;
      auto stripes = full;
      for (std::size_t i = 0; i < total; ++i) {
        if (mask & (1u << i)) {
          missing.push_back(i);
          stripes[i].clear();  // simulate the loss
        }
      }
      rs.reconstruct(stripes, missing, width);
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(stripes[j], data[j])
            << "m=" << m << " k=" << k << " mask=" << mask << " stripe " << j;
      }
    }
  }
}

/// decode() writes only the lost data stripes, and only the prefix of
/// each that the caller's view asks for; the other views stay as they
/// were, and a view wider than `width` is refused.
TEST(RsCode, DecodeWritesPrefixesIntoCallerMemory) {
  workload::Rng rng(0xdec0de);
  const std::size_t m = 6, k = 2, width = 70;
  const RsCode rs(m, k);
  auto data = random_stripes(m, width, rng);
  data[m - 1].resize(20);  // a short tail stripe, zero-padded by contract
  std::vector<std::vector<std::uint8_t>> parity;
  rs.encode(data, parity, width);
  std::vector<std::span<const std::uint8_t>> in(data.begin(), data.end());
  in.insert(in.end(), parity.begin(), parity.end());

  const std::size_t missing[2] = {1, m - 1};
  std::vector<std::uint8_t> lost1(33, 0xee), lost_tail(width, 0xee),
      untouched(width, 0xee);
  std::vector<std::span<std::uint8_t>> out(m);
  out[1] = lost1;
  out[m - 1] = lost_tail;
  out[0] = untouched;  // present slot: its view is ignored
  rs.decode(in, missing, width, out);
  EXPECT_TRUE(std::equal(lost1.begin(), lost1.end(), data[1].begin()));
  EXPECT_TRUE(std::equal(lost_tail.begin(), lost_tail.begin() + 20,
                         data[m - 1].begin()));
  EXPECT_TRUE(std::all_of(lost_tail.begin() + 20, lost_tail.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(untouched.begin(), untouched.end(),
                          [](std::uint8_t b) { return b == 0xee; }));

  std::vector<std::uint8_t> too_wide(width + 1);
  out[1] = too_wide;
  EXPECT_THROW(rs.decode(in, missing, width, out), std::invalid_argument);
}

/// Randomized fuzz at planner shapes: (m, k) with m + k = n for cube
/// dimensions up to 10, random widths (including 0 and tiny), random
/// erasures of exactly k stripes.
TEST(RsCode, RandomizedRoundTripFuzz) {
  workload::Rng rng(0xf0221);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng() % 9;           // 2..10 trees
    const std::size_t k = 1 + rng() % (n - 1);     // 1..n-1 parity
    const std::size_t m = n - k;
    const std::size_t width = rng() % 130;         // 0..129 bytes
    const RsCode rs(m, k);
    const auto data = random_stripes(m, width, rng);
    std::vector<std::vector<std::uint8_t>> stripes = data;
    {
      std::vector<std::vector<std::uint8_t>> parity;
      rs.encode(data, parity, width);
      for (auto& p : parity) stripes.push_back(std::move(p));
    }
    // Lose exactly k distinct random stripes.
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(all[i], all[i + rng() % (n - i)]);
    }
    std::vector<std::size_t> missing(all.begin(),
                                     all.begin() + static_cast<long>(k));
    for (const std::size_t i : missing) stripes[i].clear();
    rs.reconstruct(stripes, missing, width);
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(stripes[j], data[j])
          << "trial " << trial << " n=" << n << " k=" << k
          << " width=" << width;
    }
  }
}

}  // namespace
