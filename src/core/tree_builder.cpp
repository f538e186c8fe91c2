#include "core/tree_builder.hpp"

#include <cassert>


namespace hypercast::core {

TreeBuilder& TreeBuilder::local() {
  // One scratch arena per thread: sweeps, benches, the CLI and every
  // serving thread amortize all construction allocations without
  // sharing state across workers.
  thread_local TreeBuilder builder;
  return builder;
}

MulticastSchedule TreeBuilder::build(const MulticastRequest& req,
                                     Recipe recipe) {
  req.validate();
  MulticastSchedule out(req.topo, req.source);
  hcube::make_relative_chain_into(req.topo, req.source, req.destinations,
                                  chain_);
  build_relative(chain_, recipe, out);
  return out;
}

void TreeBuilder::build_relative(std::vector<NodeId>& chain, Recipe recipe,
                                 MulticastSchedule& out) {
  if (recipe.weighted) weighted_sort(out.topo(), chain, wsort_scratch_);
  build_chain_into(out.topo(), chain, recipe.rule, out);
}

void TreeBuilder::build_chain_into(const Topology& topo,
                                   std::span<const NodeId> chain,
                                   NextRule rule, MulticastSchedule& out) {
  assert(!chain.empty());
  out.reset(topo, chain[0]);
  const std::size_t n = chain.size();
  if (n <= 1) {
    out.finalize();
    return;
  }
  // Every non-source chain entry receives exactly once; payload volume
  // is roughly one chain suffix per tree level, so 2n is a good first
  // guess (amortized away entirely once the schedule is recycled).
  out.reserve(n - 1, 2 * n);

  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) keys_[i] = topo.key(chain[i]);
#ifndef NDEBUG
  for (std::size_t i = 1; i < n; ++i) {
    assert(keys_[i] != keys_[0] &&
           "destinations must not include the source");
  }
#endif

  // The distributed recursion over index ranges: chain_[local] holds
  // the message and owes delivery to the field chain_[local+1 .. last].
  // Processing order across ranges is irrelevant (each node's sends are
  // emitted in one burst; the schedule groups per sender), so a LIFO
  // stack keeps the worklist cache-hot.
  work_.clear();
  work_.push_back(Range{0, static_cast<std::uint32_t>(n - 1)});
  while (!work_.empty()) {
    const Range range = work_.back();
    work_.pop_back();
    const std::uint32_t left = range.local;
    std::uint32_t right = range.last;
    const NodeId local = chain[left];
    while (left < right) {
      const auto next =
          static_cast<std::uint32_t>(split_next(keys_, left, right, rule));
      // Steps 5-6: transmit to d_next along with the address field
      // D = {d_next+1, ..., d_right} — the contiguous chain segment
      // (next, right]. The recipient's own share of the recursion is
      // exactly that range.
      out.add_send(local, chain[next], chain.subspan(next + 1, right - next));
      if (next < right) work_.push_back(Range{next, right});

      // Step 7.
      right = next - 1;
    }
  }
  out.finalize();
}

}  // namespace hypercast::core
