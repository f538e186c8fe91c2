#include "core/chain_algorithms.hpp"

#include "core/tree_builder.hpp"

namespace hypercast::core {

std::vector<Send> local_sends(const Topology& topo, NodeId local,
                              std::span<const NodeId> field, NextRule rule) {
  std::vector<Send> sends;
  if (field.empty()) return sends;

  // Chain position 0 is the local node, position i >= 1 is field[i - 1].
  std::vector<std::uint32_t> key(field.size() + 1);
  key[0] = topo.key(local);
  for (std::size_t i = 0; i < field.size(); ++i) {
    key[i + 1] = topo.key(field[i]);
    assert(key[i + 1] != key[0] && "field must not contain the local node");
  }

  std::size_t right = field.size();
  while (0 < right) {
    const std::size_t next = split_next(key, 0, right, rule);
    // Steps 5-6: transmit to d_next along with the address field
    // D = {d_next+1, ..., d_right}, the contiguous segment
    // field[next .. right - 1]. Emit it as a view, not a copy.
    sends.push_back(Send{field[next - 1], field.subspan(next, right - next)});
    // Step 7.
    right = next - 1;
  }
  return sends;
}

MulticastSchedule build_chain_schedule(const Topology& topo,
                                       std::span<const NodeId> chain,
                                       NextRule rule) {
  assert(!chain.empty());
  MulticastSchedule schedule(topo, chain[0]);
  TreeBuilder builder;
  builder.build_chain_into(topo, chain, rule, schedule);
  return schedule;
}

}  // namespace hypercast::core
