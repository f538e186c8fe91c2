#ifndef HYPERCAST_TESTS_WEIGHTED_SORT_ORACLE_HPP
#define HYPERCAST_TESTS_WEIGHTED_SORT_ORACLE_HPP

// Test oracle for core::weighted_sort: the paper's centralized Figure-7
// recursion, verbatim. It recurses into both halves of a subcube and
// then rotates them in place when the later half is strictly more
// populated (O(m^2) in the worst case). core::weighted_sort decides the
// same swaps top-down; every test that pins its output compares against
// this function.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "hcube/bits.hpp"
#include "hcube/chain.hpp"

namespace hypercast::testutil {

namespace oracle_detail {

/// cube_center (Figure 7): the starting position of the second
/// (ns-1)-dimensional half of the chain range [first, last], all of
/// whose relative keys lie in one ns-dimensional subcube. Returns
/// last + 1 when either half is empty.
inline std::size_t cube_center(const std::vector<std::uint32_t>& rel,
                               std::size_t first, std::size_t last,
                               hcube::Dim ns) {
  assert(ns >= 1);
  std::size_t split = first;
  while (split <= last && !hcube::test_bit(rel[split], ns - 1)) ++split;
  if (split == first || split > last) return last + 1;  // a half is empty
  return split;
}

/// Recurse into both halves, then swap them (rotate) when the later
/// half is strictly more populated — except at a range that starts at
/// position 0, which pins the source.
inline void faithful_rec(std::vector<std::uint32_t>& rel, std::size_t first,
                         std::size_t last, hcube::Dim ns) {
  if (last - first < 2) return;
  assert(ns >= 1 && "distinct keys in one range imply free dimensions");
  const std::size_t center = cube_center(rel, first, last, ns);
  if (center == last + 1) {
    // All nodes fall in one half; it is itself an (ns-1)-subcube.
    faithful_rec(rel, first, last, ns - 1);
    return;
  }
  faithful_rec(rel, first, center - 1, ns - 1);
  faithful_rec(rel, center, last, ns - 1);
  if (first != 0 && (center - first) < (last - center + 1)) {
    std::rotate(rel.begin() + static_cast<std::ptrdiff_t>(first),
                rel.begin() + static_cast<std::ptrdiff_t>(center),
                rel.begin() + static_cast<std::ptrdiff_t>(last) + 1);
  }
}

}  // namespace oracle_detail

/// Figure 7 applied in place to a d0-relative dimension-ordered chain
/// (hcube::make_relative_chain output, source at position 0). Same
/// contract as core::weighted_sort.
inline void weighted_sort_oracle(const hcube::Topology& topo,
                                 std::vector<hcube::NodeId>& chain) {
  if (chain.size() <= 2) return;
  const hcube::NodeId source = chain[0];
  std::vector<std::uint32_t> rel(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    rel[i] = hcube::relative_key(topo, source, chain[i]);
  }
  assert(std::is_sorted(rel.begin(), rel.end()) &&
         "weighted_sort input must be a dimension-ordered relative chain");
  oracle_detail::faithful_rec(rel, 0, rel.size() - 1, topo.dim());
  const std::uint32_t skey = topo.key(source);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    chain[i] = topo.unkey(rel[i] ^ skey);
  }
}

}  // namespace hypercast::testutil

#endif  // HYPERCAST_TESTS_WEIGHTED_SORT_ORACLE_HPP
