#ifndef HYPERCAST_SIM_SHARD_HPP
#define HYPERCAST_SIM_SHARD_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "sim/wormhole_sim.hpp"

namespace hypercast::sim {

/// A partition of a CollectiveJob set into independent shards.
///
/// Two jobs conflict when their network footprints can interact: their
/// E-cube arc sets intersect, or they share a participating node
/// (source or any recipient — participants' injection/consumption pools
/// and CPUs serialize work across jobs). Shards are the connected
/// components of this conflict graph: jobs in different shards touch
/// provably disjoint simulator state, so simulating each shard on its
/// own EventQueue + Network is *exact*, not an approximation — every
/// delivery time, blocking count, and event count matches the joint
/// single-queue simulation.
struct ShardPlan {
  /// Each shard lists original job indices in ascending order; shards
  /// are ordered by their smallest member. The plan is a pure function
  /// of the job list — never of thread count.
  std::vector<std::vector<std::size_t>> shards;

  std::size_t num_jobs() const {
    std::size_t n = 0;
    for (const auto& s : shards) n += s.size();
    return n;
  }
};

/// Group jobs into independent shards (union-find over the conflict
/// graph, with per-arc and per-node owner stamps kept per thread across
/// calls: O(total footprint), no pairwise comparisons). Each job's arcs
/// are its schedule's memoized footprint(), its nodes the source plus
/// every send's target. All jobs must share one topology and have
/// finalized schedules.
ShardPlan partition_collective_jobs(std::span<const CollectiveJob> jobs);

/// Conservative parallel replay: partition `jobs`, simulate each shard
/// on its own EventQueue + Network across `threads` workers, and merge
/// per-job results back into original job order. Deterministic by
/// construction — the partition ignores thread count and shard runs
/// share no state — so any `threads` value produces bit-identical
/// merged results (the serving guarantee every sweep in this repo
/// keeps). With a single shard (all jobs conflicting) this degrades to
/// simulate_collectives on one thread.
///
/// Merged aggregate stats are sums over shards; a job's
/// SimStats::events reports its *shard's* event count (the joint-run
/// convention of "events of the run you were part of", kept per shard).
/// MultiSimResult::shards records the partition size.
MultiSimResult simulate_collectives_sharded(
    std::span<const CollectiveJob> jobs, const SimConfig& config,
    unsigned threads = 1);

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_SHARD_HPP
