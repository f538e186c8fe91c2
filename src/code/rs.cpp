#include "code/rs.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace hypercast::code {

RsCode::RsCode(std::size_t data, std::size_t parity)
    : data_(data), parity_(parity) {
  if (data == 0) {
    throw std::invalid_argument("RsCode: need at least one data stripe");
  }
  if (data + parity > 256) {
    throw std::invalid_argument(
        "RsCode: data + parity exceeds the GF(256) element budget");
  }
  gen_.resize(parity_ * data_);
  if (parity_ == 1) {
    // Legacy XOR parity: one all-ones row. (Still MDS for k = 1, and
    // byte-identical to the original split_stripes parity stripe.)
    std::fill(gen_.begin(), gen_.end(), std::uint8_t{1});
    return;
  }
  for (std::size_t r = 0; r < parity_; ++r) {
    for (std::size_t j = 0; j < data_; ++j) {
      const auto x = static_cast<std::uint8_t>(r);
      const auto y = static_cast<std::uint8_t>(parity_ + j);
      gen_[r * data_ + j] = gf_inv(static_cast<std::uint8_t>(x ^ y));
    }
  }
}

void RsCode::encode(std::span<const std::vector<std::uint8_t>> data,
                    std::vector<std::vector<std::uint8_t>>& parity,
                    std::size_t width) const {
  if (data.size() != data_) {
    throw std::invalid_argument("RsCode::encode: wrong data stripe count");
  }
  for (const std::vector<std::uint8_t>& s : data) {
    if (s.size() > width) {
      throw std::invalid_argument("RsCode::encode: stripe wider than width");
    }
  }
  parity.resize(parity_);
  for (std::size_t r = 0; r < parity_; ++r) {
    // Column 0 writes the row outright (no zero-fill pass first); only
    // the tail past a short column-0 stripe is zeroed, since a reused
    // row may hold stale bytes there.
    std::vector<std::uint8_t>& out = parity[r];
    out.resize(width);
    const std::vector<std::uint8_t>& first = data[0];
    gf_mul_row(out.data(), first.data(), coefficient(r, 0), first.size());
    if (first.size() < width) {
      std::memset(out.data() + first.size(), 0, width - first.size());
    }
    for (std::size_t j = 1; j < data_; ++j) {
      gf_addmul(out.data(), data[j].data(), coefficient(r, j), data[j].size());
    }
  }
}

void RsCode::decode(std::span<const std::span<const std::uint8_t>> stripes,
                    std::span<const std::size_t> missing, std::size_t width,
                    std::span<const std::span<std::uint8_t>> out) const {
  if (stripes.size() != data_ + parity_) {
    throw std::invalid_argument("RsCode::decode: wrong stripe count");
  }
  if (out.size() != data_) {
    throw std::invalid_argument("RsCode::decode: wrong output count");
  }
  std::vector<char> gone(data_ + parity_, 0);
  std::vector<std::size_t> lost;
  for (const std::size_t i : missing) {
    if (i >= data_ + parity_ || gone[i]) {
      throw std::invalid_argument(
          "RsCode::decode: bad or repeated missing index");
    }
    gone[i] = 1;
    if (i < data_) lost.push_back(i);
  }
  if (lost.empty()) return;

  // Pick the first e surviving parity rows; Cauchy (and the k = 1 XOR
  // row) guarantee the e-by-e submatrix they select over the lost data
  // columns is invertible.
  const std::size_t e = lost.size();
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < parity_ && rows.size() < e; ++r) {
    if (!gone[data_ + r]) rows.push_back(r);
  }
  if (rows.size() < e) {
    throw std::invalid_argument(
        "RsCode::decode: more erasures than surviving parity stripes");
  }
  for (std::size_t j = 0; j < data_; ++j) {
    if (!gone[j] && stripes[j].size() > width) {
      throw std::invalid_argument(
          "RsCode::decode: data stripe wider than width");
    }
  }
  for (const std::size_t r : rows) {
    if (stripes[data_ + r].size() > width) {
      throw std::invalid_argument(
          "RsCode::decode: parity stripe wider than width");
    }
  }
  for (const std::size_t j : lost) {
    if (out[j].size() > width) {
      throw std::invalid_argument(
          "RsCode::decode: output view wider than width");
    }
  }

  // Invert A (A[r][c] = C[rows[r]][lost[c]]) by Gauss-Jordan on [A | I]
  // over GF(256): at most k x k bytes, so the byte planes stay the cost.
  std::vector<std::uint8_t> a(e * e), inv(e * e, 0);
  for (std::size_t r = 0; r < e; ++r) {
    for (std::size_t c = 0; c < e; ++c) {
      a[r * e + c] = coefficient(rows[r], lost[c]);
    }
    inv[r * e + r] = 1;
  }
  for (std::size_t col = 0; col < e; ++col) {
    std::size_t pivot = col;
    while (pivot < e && a[pivot * e + col] == 0) ++pivot;
    if (pivot == e) {
      // Unreachable for the Cauchy/XOR generators (every square
      // submatrix is nonsingular); kept as a hard error rather than UB.
      throw std::invalid_argument(
          "RsCode::decode: singular erasure submatrix");
    }
    if (pivot != col) {
      std::swap_ranges(a.begin() + pivot * e, a.begin() + (pivot + 1) * e,
                       a.begin() + col * e);
      std::swap_ranges(inv.begin() + pivot * e,
                       inv.begin() + (pivot + 1) * e, inv.begin() + col * e);
    }
    const std::uint8_t scale = gf_inv(a[col * e + col]);
    for (std::size_t c = 0; c < e; ++c) {
      a[col * e + c] = gf_mul(a[col * e + c], scale);
      inv[col * e + c] = gf_mul(inv[col * e + c], scale);
    }
    for (std::size_t r = 0; r < e; ++r) {
      const std::uint8_t factor = a[r * e + col];
      if (r == col || factor == 0) continue;
      for (std::size_t c = 0; c < e; ++c) {
        a[r * e + c] ^= gf_mul(factor, a[col * e + c]);
        inv[r * e + c] ^= gf_mul(factor, inv[col * e + c]);
      }
    }
  }

  // Each parity row reads p_r = sum_c A[r][c] * lost_c + sum over
  // surviving data j of C[rows[r]][j] * d_j, so
  //   lost_c = sum_r inv[c][r] * p_r
  //          + sum_j (sum_r inv[c][r] * C[rows[r]][j]) * d_j.
  // One coefficient per surviving stripe; the first sweep writes the
  // output outright and zeroes what its (short) source does not cover.
  for (std::size_t c = 0; c < e; ++c) {
    const std::span<std::uint8_t> dst = out[lost[c]];
    bool first = true;
    const auto sweep = [&](std::span<const std::uint8_t> src,
                           std::uint8_t coef) {
      const std::size_t n = std::min(dst.size(), src.size());
      if (!first) {
        gf_addmul(dst.data(), src.data(), coef, n);
        return;
      }
      first = false;
      gf_mul_row(dst.data(), src.data(), coef, n);
      if (n < dst.size()) std::memset(dst.data() + n, 0, dst.size() - n);
    };
    for (std::size_t r = 0; r < e; ++r) {
      sweep(stripes[data_ + rows[r]], inv[c * e + r]);
    }
    for (std::size_t j = 0; j < data_; ++j) {
      if (gone[j]) continue;
      std::uint8_t coef = 0;
      for (std::size_t r = 0; r < e; ++r) {
        coef ^= gf_mul(inv[c * e + r], coefficient(rows[r], j));
      }
      sweep(stripes[j], coef);
    }
  }
}

void RsCode::reconstruct(std::vector<std::vector<std::uint8_t>>& stripes,
                         std::span<const std::size_t> missing,
                         std::size_t width) const {
  if (stripes.size() != data_ + parity_) {
    throw std::invalid_argument("RsCode::reconstruct: wrong stripe count");
  }
  for (const std::size_t i : missing) {
    if (i < data_) stripes[i].resize(width);
  }
  std::vector<std::span<const std::uint8_t>> in(stripes.begin(),
                                                stripes.end());
  std::vector<std::span<std::uint8_t>> out(stripes.begin(),
                                           stripes.begin() +
                                               static_cast<std::ptrdiff_t>(data_));
  decode(in, missing, width, out);
}

}  // namespace hypercast::code
