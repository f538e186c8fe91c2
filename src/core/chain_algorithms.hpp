#ifndef HYPERCAST_CORE_CHAIN_ALGORITHMS_HPP
#define HYPERCAST_CORE_CHAIN_ALGORITHMS_HPP

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

#include "core/multicast.hpp"
#include "hcube/bits.hpp"

namespace hypercast::core {

/// The family of chain-splitting multicast algorithms of Section 4.1.
/// All three share the body of Algorithm 1 (the U-cube loop) and differ
/// only in how `next` is chosen each iteration:
///
///   * U-cube:  next = center              (one-port optimal [McKinley'92])
///   * Maxport: next = highdim             (peel the maximal top subcube)
///   * Combine: next = max(highdim,center) (Maxport across subcubes,
///                                          binary halving within one)
enum class NextRule {
  Center,
  HighDim,
  MaxOfBoth,
};

/// How a paper algorithm builds its tree: sort the destinations into the
/// source-relative dimension-ordered chain, permute it with
/// weighted_sort if `weighted` (W-sort, Section 4.2), then run
/// Algorithm 1 with `rule`. The four paper recipes are defined once, on
/// their registry entries (core/registry.cpp).
struct Recipe {
  constexpr Recipe(NextRule next, bool weighted_sort = false)
      : rule(next), weighted(weighted_sort) {}

  NextRule rule;
  bool weighted;
};

/// Steps 1-4 of Algorithm 1, the one split step every chain builder
/// runs. Chain index `left` holds the message and owes delivery to the
/// chain indices (left, right] of a cube-ordered chain whose canonical
/// keys (Topology::key) are `keys`. Returns `next`: the index it sends
/// to, with the address field (next, right]. Step 7 is the caller's:
/// `right = next - 1`.
inline std::size_t split_next(std::span<const std::uint32_t> keys,
                              std::size_t left, std::size_t right,
                              NextRule rule) {
  // Step 1: x = delta(d_left, d_right), the first routing dimension (as
  // a key-space bit) of a message spanning the whole segment. Keys make
  // it the highest differing bit for either resolution order, and XOR
  // translation cancels, so no global source is needed.
  const Dim x = hcube::highest_bit(keys[left] ^ keys[right]);

  // Step 2: d_highdim, the leftmost node whose route from d_left starts
  // on channel x. In a cube-ordered segment the far side of bit x is a
  // contiguous suffix, so this is that suffix's head.
  std::size_t highdim = left + 1;
  const bool left_side = hcube::test_bit(keys[left], x);
  while (hcube::test_bit(keys[highdim], x) == left_side) ++highdim;
  assert(highdim <= right);

  // Step 3: the binary-halving midpoint.
  const std::size_t center = left + (right - left + 1) / 2;

  // Step 4: the single statement the three algorithms differ in.
  switch (rule) {
    case NextRule::HighDim:
      return highdim;
    case NextRule::MaxOfBoth:
      return std::max(highdim, center);
    case NextRule::Center:
      break;
  }
  return center;
}

/// One node's share of the distributed algorithm: the ordered unicasts
/// node `local` issues after receiving the address field `field` (the
/// ordered list of destinations it is responsible for, exactly as
/// transmitted on the wire). This is the routine a real implementation
/// runs in the message handler — it needs no knowledge of the global
/// source, only the field it received. Precondition: {local} + field is
/// a cube-ordered chain (Definition 5) of distinct nodes.
///
/// Every payload is a contiguous suffix-segment of the received field,
/// so the returned sends carry spans *into `field`* — zero copies. The
/// caller must keep `field`'s storage alive and unchanged while the
/// sends are in use.
std::vector<Send> local_sends(const Topology& topo, NodeId local,
                              std::span<const NodeId> field, NextRule rule);

/// Run the Algorithm-1 loop over an explicit chain (position 0 is the
/// source / local node). The chain must be cube-ordered (Definition 5);
/// dimension-ordered chains always qualify (Theorem 4), and so do
/// weighted_sort outputs (Theorem 5). Equivalent to executing the
/// distributed recursion — delivering each address field and invoking
/// local_sends at every recipient — but implemented as an explicit
/// worklist of (node, first, last) index ranges over the one shared
/// chain buffer (every delivered field is a contiguous chain segment),
/// so nothing is copied per hop. Convenience wrapper over
/// TreeBuilder::build_chain_into.
MulticastSchedule build_chain_schedule(const Topology& topo,
                                       std::span<const NodeId> chain,
                                       NextRule rule);

/// U-cube (Figure 4): sorts the destinations into the d0-relative
/// dimension-ordered chain and splits it binarily. These three and
/// wsort() build through their registry recipes (core/registry.cpp).
MulticastSchedule ucube(const MulticastRequest& req);

/// Maxport: one send per outgoing channel, each peeling the whole
/// highest-dimension subcube that holds destinations.
MulticastSchedule maxport(const MulticastRequest& req);

/// Combine: Maxport's channel spreading without leaving one node
/// responsible for more than half the remaining chain.
MulticastSchedule combine(const MulticastRequest& req);

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_CHAIN_ALGORITHMS_HPP
