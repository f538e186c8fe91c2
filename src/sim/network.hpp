#ifndef HYPERCAST_SIM_NETWORK_HPP
#define HYPERCAST_SIM_NETWORK_HPP

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/stepwise.hpp"
#include "fault/fault_set.hpp"
#include "hcube/ecube.hpp"

namespace hypercast::sim {

using core::PortModel;
using hcube::NodeId;
using hcube::Topology;

/// Index of a message inside one simulation run.
using MessageId = std::uint32_t;

/// Index into the network's flat resource table.
struct ResourceId {
  std::uint32_t index = 0;
};

/// The contended hardware of a wormhole-routed hypercube, reduced to
/// FIFO-granted resources:
///
///  * every directed external channel (capacity 1) — the arcs worms
///    acquire hop by hop and hold while blocked;
///  * per node, an injection pool and a consumption pool modelling the
///    internal processor<->router channels of the port model (Section 1):
///    capacity 1 for one-port, k for k-port, and n for all-port. An
///    all-port pool never actually binds — two worms sharing an internal
///    channel necessarily share the adjacent external channel too — but
///    is kept for uniformity.
///
/// All per-resource state is held in flat arrays indexed by the dense
/// resource index (arc index, then pools); waiter FIFOs are intrusive
/// singly-linked lists threaded through a per-message next array, so
/// constructing and running a network performs no per-resource or
/// per-wait heap allocation.
///
/// The Network knows nothing about time; the simulator drives it and
/// interprets grants.
class Network {
 public:
  /// `faults` (optional, caller-owned, must outlive the network) marks
  /// failed links and dead nodes: their channels are never acquirable.
  /// Routing a worm into a faulted resource is a *hard error* — the
  /// deterministic E-cube router cannot route around faults, so any
  /// schedule that reaches a faulted channel is a planning bug (the
  /// fault-aware repair layer exists to make this impossible).
  Network(const Topology& topo, PortModel port,
          const fault::FaultSet* faults = nullptr);

  const Topology& topo() const { return topo_; }

  /// The ordered resources a unicast from `from` to `to` must acquire:
  /// injection slot, each E-cube arc in traversal order, consumption
  /// slot. Precondition: from != to. Throws std::logic_error when the
  /// route crosses a failed arc or dead node of the fault set.
  std::vector<ResourceId> path_resources(NodeId from, NodeId to) const;

  /// Allocation-free variant: append the same resources to `out`
  /// (reusing its capacity) instead of returning a fresh vector — the
  /// engine pools every worm's path in one flat buffer this way.
  void append_path_resources(NodeId from, NodeId to,
                             std::vector<ResourceId>& out) const;

  /// True iff an ext-channel resource (whose acquisition costs a header
  /// hop) as opposed to an internal pool slot.
  bool is_external(ResourceId r) const {
    return r.index < num_external_;
  }

  bool available(ResourceId r) const {
    // One 16-bit load covers both counts: in-use (high byte) vs
    // capacity (low byte). This predicate runs once per hop of every
    // worm in a run — splitting it over two arrays would touch two
    // cache lines.
    const std::uint16_t u = units_[r.index];
    return (u >> 8) < (u & 0xff);
  }

  /// Take one unit. Precondition: available(r).
  void take(ResourceId r) {
    assert(available(r));
    units_[r.index] += 0x100;
    ++busy_;
  }

  /// Enqueue a message waiting for one unit of r. A message may wait on
  /// at most one resource at a time (worms acquire their path in order).
  void enqueue(ResourceId r, MessageId m);

  /// Release one unit of r. If a message is waiting, one unit is
  /// immediately re-granted to the head waiter, which is returned so the
  /// simulator can resume it. Inline: runs once per path resource of
  /// every delivered worm, and the common case is no waiter.
  std::optional<MessageId> release(ResourceId r) {
    assert((units_[r.index] >> 8) > 0);
    units_[r.index] -= 0x100;
    --busy_;
    const MessageId tail = waiter_tail_[r.index];
    if (tail != kNone) {
      const MessageId m = waiter_next_[tail];  // circular: tail -> head
      if (m == tail) {
        waiter_tail_[r.index] = kNone;
      } else {
        waiter_next_[tail] = waiter_next_[m];
      }
      units_[r.index] += 0x100;  // re-grant the freed unit to the waiter
      ++busy_;
      --waiting_;
      return m;
    }
    return std::nullopt;
  }

  std::size_t waiting_count(ResourceId r) const;

  /// All units idle and no waiters — the invariant at the end of a run.
  /// O(1): tracked by counters, not a scan of the (for a big cube,
  /// multi-megabyte) resource arrays — engines check this per run.
  bool quiescent() const { return busy_ == 0 && waiting_ == 0; }

  /// Heap bytes pinned by per-resource and per-waiter state (capacity,
  /// not size) — the bulk of a large cube's simulation footprint.
  std::size_t memory_bytes() const;

 private:
  static constexpr MessageId kNone = static_cast<MessageId>(-1);

  ResourceId external_arc(hcube::Arc a) const {
    return ResourceId{static_cast<std::uint32_t>(topo_.arc_index(a))};
  }
  ResourceId injection_pool(NodeId u) const {
    return ResourceId{static_cast<std::uint32_t>(num_external_ + u)};
  }
  ResourceId consumption_pool(NodeId u) const {
    return ResourceId{static_cast<std::uint32_t>(num_external_ +
                                                 topo_.num_nodes() + u)};
  }

  Topology topo_;
  const fault::FaultSet* faults_;
  std::uint32_t num_external_;
  /// Per-resource unit counts, packed (in_use << 8) | capacity: an arc
  /// has capacity 1 and a pool at most the port concurrency (≤ kMaxDim
  /// = 20), so a byte holds any real value with a 255 clamp as a
  /// formality. A 20-cube has ~22M resources — int fields here would
  /// cost ~160 MB of pure padding, and splitting the two counts over
  /// separate arrays doubles the hot path's cache traffic.
  std::vector<std::uint16_t> units_;
  /// Per-resource wait FIFO as a *circular* intrusive list: this array
  /// holds only the tail message (kNone = empty) and the tail's next
  /// pointer wraps to the head, so a resource costs 4 bytes of waiter
  /// state instead of a head+tail pair — at 20-cube scale that halves
  /// ~180 MB of wait-list headers, and the construction-time fill (paid
  /// per simulation run) shrinks with it.
  std::vector<MessageId> waiter_tail_;
  /// waiter_next_[m] = the message behind m in whichever wait list m is
  /// on (the tail wraps to the head); grown on demand as messages
  /// enqueue.
  std::vector<MessageId> waiter_next_;
  std::uint64_t busy_ = 0;     ///< total units currently taken
  std::uint64_t waiting_ = 0;  ///< total messages on wait lists
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_NETWORK_HPP
