#include "core/weighted_sort.hpp"

#include <algorithm>
#include <cassert>

#include "core/wsort.hpp"
#include "hcube/bits.hpp"

namespace hypercast::core {

namespace {

/// The input range [first, last] of `sorted` is ascending, so half
/// sizes come from a binary search; the half that should go first is
/// emitted first. `pinned` marks the range that will occupy output
/// position 0 (the guard `first != 0` in Figure 7).
void sort_rec(const std::vector<std::uint32_t>& sorted, std::size_t first,
              std::size_t last, Dim ns, bool pinned,
              std::vector<std::uint32_t>& out) {
  const std::size_t count = last - first + 1;
  if (count <= 2) {
    for (std::size_t i = first; i <= last; ++i) out.push_back(sorted[i]);
    return;
  }
  assert(ns >= 1);
  // Boundary between the halves: first key with bit (ns-1) set. All keys
  // in the range share the bits at and above ns.
  const std::uint32_t prefix = sorted[first] >> ns;
  const std::uint32_t boundary = (prefix << ns) | (1u << (ns - 1));
  const auto it = std::lower_bound(
      sorted.begin() + static_cast<std::ptrdiff_t>(first),
      sorted.begin() + static_cast<std::ptrdiff_t>(last) + 1, boundary);
  const std::size_t center =
      static_cast<std::size_t>(it - sorted.begin());
  if (center == first || center > last) {
    sort_rec(sorted, first, last, ns - 1, pinned, out);
    return;
  }
  const std::size_t lower_n = center - first;
  const std::size_t upper_n = last - center + 1;
  const bool swap = !pinned && lower_n < upper_n;
  if (swap) {
    sort_rec(sorted, center, last, ns - 1, false, out);
    sort_rec(sorted, first, center - 1, ns - 1, false, out);
  } else {
    sort_rec(sorted, first, center - 1, ns - 1, pinned, out);
    sort_rec(sorted, center, last, ns - 1, false, out);
  }
}

void to_relative(const Topology& topo, const std::vector<NodeId>& chain,
                 std::vector<std::uint32_t>& rel) {
  rel.resize(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    rel[i] = hcube::relative_key(topo, chain[0], chain[i]);
  }
  assert(std::is_sorted(rel.begin(), rel.end()) &&
         "weighted_sort input must be a dimension-ordered relative chain");
}

void from_relative(const Topology& topo, NodeId source,
                   const std::vector<std::uint32_t>& rel,
                   std::vector<NodeId>& chain) {
  const std::uint32_t skey = topo.key(source);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    chain[i] = topo.unkey(rel[i] ^ skey);
  }
}

}  // namespace

void weighted_sort(const Topology& topo, std::vector<NodeId>& chain,
                   WeightedSortScratch& scratch) {
  if (chain.size() <= 2) return;
  const NodeId source = chain[0];
  to_relative(topo, chain, scratch.rel);
  scratch.out.clear();
  scratch.out.reserve(scratch.rel.size());
  sort_rec(scratch.rel, 0, scratch.rel.size() - 1, topo.dim(),
           /*pinned=*/true, scratch.out);
  from_relative(topo, source, scratch.out, chain);
}

void weighted_sort(const Topology& topo, std::vector<NodeId>& chain) {
  WeightedSortScratch scratch;
  weighted_sort(topo, chain, scratch);
}

std::vector<NodeId> wsort_chain(const MulticastRequest& req) {
  req.validate();
  auto chain = hcube::make_relative_chain(req.topo, req.source, req.destinations);
  weighted_sort(req.topo, chain);
  return chain;
}

}  // namespace hypercast::core
