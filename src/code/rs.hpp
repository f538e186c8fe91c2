#ifndef HYPERCAST_CODE_RS_HPP
#define HYPERCAST_CODE_RS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "code/gf256.hpp"

namespace hypercast::code {

/// Systematic (m + k, m) Reed–Solomon erasure code over GF(256): m data
/// stripes plus k parity stripes, tolerating the loss of ANY k stripes
/// (data or parity). This is what lets the striped planner reserve k
/// parity trees and reconstruct every dropped stripe at the receivers
/// (docs/CODING.md has the construction and proofs).
///
/// The generator is chosen so the code stays MDS for every erasure
/// pattern and the single-parity case keeps the legacy XOR contract:
///   * k == 1: the parity row is all ones — parity = XOR of the data
///     stripes, byte-identical to split_stripes' original parity stripe.
///   * k >= 2: a Cauchy matrix C[r][j] = inv(x_r ^ y_j) with x_r = r
///     (r < k) and y_j = k + j (j < m). The x's and y's are k + m
///     distinct field elements, so every square submatrix of C is
///     nonsingular — which is exactly the MDS property: any e <= k
///     missing data stripes are recoverable from any e surviving parity
///     stripes by inverting the e-by-e submatrix they select.
///
/// Stripes are byte vectors notionally zero-padded to a common `width`
/// (short tails contribute zeroes, exactly like the XOR parity split).
class RsCode {
 public:
  /// Requires data >= 1 and data + parity <= 256 (the Cauchy
  /// construction draws k + m distinct elements of GF(256)); throws
  /// std::invalid_argument otherwise. parity == 0 builds a trivial
  /// coder whose encode produces nothing.
  RsCode(std::size_t data, std::size_t parity);

  std::size_t data_stripes() const { return data_; }
  std::size_t parity_stripes() const { return parity_; }

  /// Generator coefficient of parity row r over data stripe j.
  std::uint8_t coefficient(std::size_t row, std::size_t col) const {
    return gen_[row * data_ + col];
  }

  /// parity[r][i] = sum_j C[r][j] * data[j][i] over the zero-padded
  /// stripes: `parity` is resized to k stripes of `width` bytes each.
  /// Data stripes shorter than `width` are treated as zero-padded;
  /// longer ones are an error.
  void encode(std::span<const std::vector<std::uint8_t>> data,
              std::vector<std::vector<std::uint8_t>>& parity,
              std::size_t width) const;

  /// Rebuild lost data stripes into caller memory. `stripes` views the
  /// m + k slots (data first, then parity), each notionally zero-padded
  /// to `width`; views of missing slots are never read. `missing` lists
  /// the unavailable slot indices in [0, m + k). `out` has one view per
  /// data slot: for every missing data slot j, the first out[j].size()
  /// (<= width) bytes of stripe j are written there; the other views
  /// are ignored. Missing parity stripes merely shrink the budget.
  ///
  /// Single pass: the e-by-e erasure submatrix over the first e
  /// surviving parity rows is inverted once (scalar, e <= k), folded
  /// into one coefficient row per lost stripe over the surviving data
  /// and parity stripes, and each lost stripe is then one gf_mul_row +
  /// gf_addmul sweep per surviving stripe it depends on.
  ///
  /// Throws std::invalid_argument when #missing-data >
  /// #surviving-parity (more erasures than the code tolerates), when
  /// `missing` repeats/overflows an index, when a surviving stripe read
  /// is wider than `width`, or on a slot/view count or view width that
  /// does not fit the code.
  void decode(std::span<const std::span<const std::uint8_t>> stripes,
              std::span<const std::size_t> missing, std::size_t width,
              std::span<const std::span<std::uint8_t>> out) const;

  /// decode() over owned stripes, in place: every missing data stripe
  /// is resized to `width` (zero-padded tail included) and rebuilt.
  void reconstruct(std::vector<std::vector<std::uint8_t>>& stripes,
                   std::span<const std::size_t> missing,
                   std::size_t width) const;

 private:
  std::size_t data_;
  std::size_t parity_;
  std::vector<std::uint8_t> gen_;  ///< k x m generator, row-major
};

}  // namespace hypercast::code

#endif  // HYPERCAST_CODE_RS_HPP
