#ifndef HYPERCAST_FAULT_REPAIR_HPP
#define HYPERCAST_FAULT_REPAIR_HPP

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ist.hpp"
#include "core/registry.hpp"
#include "fault/fault_route.hpp"
#include "fault/fault_set.hpp"

namespace hypercast::fault {

/// One repaired unicast of a schedule.
struct Repair {
  NodeId from = 0;  ///< the (live) sender of the broken unicast
  NodeId to = 0;    ///< its destination
  NodePath path;    ///< the fault-free replacement route actually found
                    ///< (certified repairs start it at any holder)
  std::vector<NodeId> relays;  ///< fresh relay recipients introduced
  bool shortest = false;       ///< repaired at the original hop count
};

/// What the repair pass did to one schedule, plus the degraded-mode
/// price it paid. One report for both tiers; `chain_fed` is only ever
/// non-zero on the certified tier, `contention_violations` is only
/// computed on the greedy tier (certified repairs are arc-disjoint from
/// every claimed tree by construction).
struct RepairReport {
  std::size_t unicasts_checked = 0;
  std::size_t broken = 0;            ///< unicasts blocked by a fault
  std::size_t rerouted_shortest = 0; ///< fixed by a same-length detour
  std::size_t relayed = 0;           ///< needed a longer relay route
  std::size_t chain_fed = 0;  ///< planned recipients whose delivery moved
                              ///< onto a repair chain (their base send is
                              ///< skipped — the tree property is kept)
  std::size_t dead_relays_bypassed = 0;  ///< dead tree nodes whose
                                         ///< forwarding moved to a parent
  std::size_t relay_nodes_added = 0;     ///< extra processors involved
  int extra_hops = 0;  ///< transmitted detour hops minus E-cube distance
                       ///< (negative when chains short-circuit through
                       ///< nodes that already hold the message)
  std::vector<Repair> repairs;

  /// Contention the detours introduced (Definition 4 over the repaired
  /// schedule under the all-port stepwise model). Zero-fault inputs
  /// keep the base algorithm's guarantee.
  std::size_t contention_violations = 0;

  /// Repair chains emitted: one per broken unicast.
  std::size_t rerouted() const { return rerouted_shortest + relayed; }
  bool clean() const { return broken == 0 && dead_relays_bypassed == 0; }
  std::string summary() const;
};

/// A repaired schedule plus its repair accounting. The schedule is NOT
/// finalized (callers finalize after any further surgery).
struct RepairResult {
  core::MulticastSchedule schedule;
  RepairReport report;
};

/// Thrown when a destination is unreachable under the fault set (dead
/// destination or partitioned cube) — no repair can deliver.
class UnrepairableFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Repair an existing schedule against `faults`. The base tree is walked
/// in BFS order, so every sender of the result has provably received the
/// message before it issues (the result stays a tree rooted at the
/// source). Dead non-destination recipients are bypassed by moving their
/// forwarding duties to their live parent; every unicast whose E-cube
/// path crosses a failed arc or dead node is rerouted along a node path
/// split into E-cube segments whose interior endpoints relay in
/// software. No unicast of the result touches a failed resource (the
/// simulator's hard-error path proves this at run time). Two tiers share
/// that walk and differ only in the route search and the failure
/// contract:
///
///  * greedy (`claims == nullptr`) — from the broken send's sender, a
///    shortest fault-free dimension-ordered detour, else a breadth-first
///    relay route, through relays the schedule can use already (a search
///    that needs a later relay is deferred until the rest of the tree
///    has delivered). Throws UnrepairableFault when a broken send has
///    no route at all.
///
///  * certified (`claims` set) — the result is arc-disjoint from every
///    arc claimed in `*claims` (the E-cube footprints of the other
///    surviving trees of a striped family). `base`'s own arcs are
///    claimed under `self` on a private copy of the table; broken,
///    skipped and dead-bypassed sends release theirs, and each broken
///    send is rerouted many-to-one from the set of nodes already holding
///    the message through arcs that are live AND unclaimed. A chain may
///    pass through a planned recipient that has not received yet: that
///    node's delivery moves onto the chain (carrying its subtree
///    payload) and its own base send is skipped. On success `*claims`
///    has absorbed exactly the result's footprint under `self`. Returns
///    nullopt — leaving `*claims` untouched — when some broken send has
///    no disjoint route (certified: every live route collides with a
///    claimed arc).
///
/// Both tiers throw std::invalid_argument when the source is dead and
/// UnrepairableFault when a destination is dead. The greedy tier never
/// returns nullopt.
std::optional<RepairResult> repair(const core::MulticastSchedule& base,
                                   std::span<const NodeId> destinations,
                                   const FaultSet& faults,
                                   core::ArcOwnerTable* claims = nullptr,
                                   int self = -1);

/// Build `base` on the (fault-oblivious) request, then greedy-repair the
/// tree.
RepairResult fault_aware_multicast(const core::AlgorithmEntry& base,
                                   const core::MulticastRequest& request,
                                   const FaultSet& faults);

/// Number of unicasts in `schedule` whose E-cube route crosses a failed
/// arc or dead node (endpoints included) — 0 means the schedule can
/// replay unrepaired under `faults`. The serving and striping layers use
/// this to pick which trees a fault set actually touches (and, with a
/// parity stripe, which single tree to drop instead of repairing).
std::size_t blocked_unicasts(const core::MulticastSchedule& schedule,
                             const FaultSet& faults);

}  // namespace hypercast::fault

#endif  // HYPERCAST_FAULT_REPAIR_HPP
