#include "fault/repair.hpp"

#include <cassert>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "core/contention.hpp"
#include "hcube/bits.hpp"
#include "hcube/ecube.hpp"
#include "obs/registry.hpp"

namespace hypercast::fault {

namespace {

constexpr NodeId kNoParent = ~NodeId{0};

/// Repairs one schedule (both tiers; see repair() in the header). The
/// walk, the screening, the dead-relay bypass, the deferral rule and the
/// chain assembly are shared; route() is the one place the tiers differ.
/// Everything that reads the arc table is a no-op on the greedy tier: a
/// greedy relay is never a planned node that has not received yet, so
/// nothing is ever chain-fed and no base arcs are tracked.
class Repairer {
 public:
  Repairer(const core::MulticastSchedule& base,
           std::span<const NodeId> destinations, const FaultSet& faults,
           const core::ArcOwnerTable* claims, int self)
      : base_(base),
        faults_(faults),
        topo_(base.topo()),
        out_(base.topo(), base.source()),
        self_(self),
        planned_(topo_.num_nodes(), false),
        received_(topo_.num_nodes(), false) {
    if (faults_.node_failed(base_.source())) {
      throw std::invalid_argument("repair: source is dead");
    }
    for (const NodeId d : destinations) {
      if (faults_.node_failed(d)) {
        throw UnrepairableFault("destination " + topo_.format(d) +
                                " is dead; no repair can deliver");
      }
    }
    for (const NodeId r : base_.recipients()) {
      if (!faults_.node_failed(r)) planned_[r] = true;
    }
    received_[base_.source()] = true;
    holders_.push_back(base_.source());
    if (claims == nullptr) return;
    // Certified tier: index the base tree (parent and Send per
    // recipient) and pre-claim its footprint under `self`. A pre-claim
    // can lose an arc to a previously committed non-disjoint tree (the
    // planner force-claims greedy fallbacks so later repairs still avoid
    // them); the affected send then fails the owns-path test and gets
    // rerouted.
    table_.emplace(*claims);
    released_.assign(topo_.num_nodes(), 0);
    base_parent_.assign(topo_.num_nodes(), kNoParent);
    base_send_.assign(topo_.num_nodes(), nullptr);
    for (const NodeId u : base_.senders()) {
      for (const core::Send& s : base_.sends_from(u)) {
        base_parent_[s.to] = u;
        base_send_[s.to] = &s;
        hcube::for_each_ecube_arc(
            topo_, u, s.to, [&](Arc a) { table_->try_claim(a, self_); });
      }
    }
  }

  std::optional<RepairResult> run(core::ArcOwnerTable* claims) {
    enqueue_sends(base_.source(), base_.source());
    while (!queue_.empty() && !failed_) {
      Item item = queue_.front();
      queue_.pop_front();
      process(item);
    }
    if (failed_) return std::nullopt;
    if (claims != nullptr) {
      *claims = std::move(*table_);
    } else {
      report_.contention_violations =
          core::check_contention(out_, core::PortModel::all_port())
              .violations.size();
    }
    return RepairResult{std::move(out_), std::move(report_)};
  }

 private:
  struct Item {
    NodeId from;
    const core::Send* send;
    bool deferred = false;  ///< requeued at least once (already reported)
  };

  void enqueue_sends(NodeId actual_from, NodeId tree_node) {
    for (const core::Send& s : base_.sends_from(tree_node)) {
      queue_.push_back({actual_from, &s});
    }
  }

  void deliver(NodeId from, NodeId to, std::span<const NodeId> payload) {
    out_.add_send(from, to, payload);  // copied into out_'s payload pool
    received_[to] = true;
    holders_.push_back(to);
    consecutive_defers_ = 0;
  }

  /// Return the base incoming arcs of `to` to the free pool — called
  /// exactly when that send will not be emitted (broken, skipped
  /// because a chain already fed `to`, or `to` is dead). Only arcs the
  /// pre-claim actually won are released.
  void release_base_arcs(NodeId to) {
    if (!table_ || released_[to]) return;
    released_[to] = 1;
    const NodeId p = base_parent_[to];
    if (p == kNoParent) return;
    hcube::for_each_ecube_arc(topo_, p, to, [&](Arc a) {
      if (table_->owner(a) == self_) table_->release(a);
    });
  }

  bool owns_path(NodeId from, NodeId to) const {
    if (!table_) return true;
    bool mine = true;
    hcube::for_each_ecube_arc(topo_, from, to, [&](Arc a) {
      if (table_->owner(a) != self_) mine = false;
    });
    return mine;
  }

  void process(Item item) {
    const NodeId from = item.from;
    const NodeId to = item.send->to;
    if (!item.deferred) ++report_.unicasts_checked;
    if (received_[to]) {
      // A repair chain already fed `to` (its delivery moved onto the
      // chain): skip the base send, free its arcs, and let the subtree
      // flow from `to` as planned.
      release_base_arcs(to);
      enqueue_sends(to, to);
      return;
    }
    if (faults_.node_failed(to)) {
      // Dead relay (destinations were screened in the constructor): its
      // forwarding duties fall to the live sender that would have fed it.
      ++report_.dead_relays_bypassed;
      release_base_arcs(to);
      enqueue_sends(from, to);
      return;
    }
    if (!faults_.path_blocked(from, to) && owns_path(from, to)) {
      deliver(from, to, item.send->payload);
      enqueue_sends(to, to);
      return;
    }
    if (!item.deferred) ++report_.broken;
    release_base_arcs(to);
    if (route(from, *item.send)) {
      enqueue_sends(to, to);
      return;
    }
    // No usable route *yet*: a greedy search may need relays scheduled
    // to receive later (common when the tree spans most of the cube),
    // and a certified one gains holders and freed arcs as the rest of
    // the tree processes. Defer; a full queue cycle with no delivery
    // means no amount of waiting will help.
    item.deferred = true;
    if (++consecutive_defers_ > queue_.size() + 1) {
      if (table_) {
        failed_ = true;
        return;
      }
      throw UnrepairableFault("no usable fault-free route from " +
                              topo_.format(from) + " to " + topo_.format(to) +
                              " (" + faults_.format() + ")");
    }
    queue_.push_back(item);
  }

  /// A node may carry extra greedy relay traffic iff it is live and
  /// either not scheduled to receive at all (a fresh relay) or has
  /// already received (forwarding again costs a send, never a second
  /// receive).
  bool relay_usable(NodeId w) const {
    return !faults_.node_failed(w) && (!planned_[w] || received_[w]);
  }

  /// Try to reroute one broken unicast now. Returns false when the
  /// caller should defer and retry after more of the tree has delivered.
  bool route(NodeId from, const core::Send& send) {
    const NodeId to = send.to;
    if (table_) {
      // Certified: many-to-one from every holder through live, unclaimed
      // arcs. Claim the route before anything else re-routes; within a
      // segment the E-cube route IS the path run, so walking the raw
      // path claims exactly the emitted footprint.
      std::optional<NodePath> path = constrained_bfs_detour(
          topo_, faults_, holders_, to,
          [this](Arc a) { return table_->owner(a) < 0; });
      if (!path) return false;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        const Dim d = hcube::lowest_bit((*path)[i] ^ (*path)[i + 1]);
        const bool fresh = table_->try_claim(Arc{(*path)[i], d}, self_);
        assert(fresh && "certified route crossed a claimed arc");
        (void)fresh;
      }
      const bool shortest =
          static_cast<int>(path->size()) - 1 <= topo_.distance(from, to);
      emit(from, send, *path, segment_endpoints(topo_, *path), shortest);
      return true;
    }
    std::vector<bool> banned(topo_.num_nodes(), false);
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::optional<NodePath> path =
          dimension_ordered_detour(topo_, faults_, from, to, &banned);
      const bool shortest = path.has_value();
      if (!path) path = bfs_detour(topo_, faults_, from, to, &banned);
      if (!path) return false;
      const std::vector<NodeId> endpoints = segment_endpoints(topo_, *path);
      // Every interior endpoint becomes a software relay; ban the ones
      // the schedule cannot use and search again.
      bool usable = true;
      for (std::size_t i = 1; i + 1 < endpoints.size(); ++i) {
        if (!relay_usable(endpoints[i])) {
          banned[endpoints[i]] = true;
          usable = false;
        }
      }
      if (!usable) continue;
      emit(from, send, *path, endpoints, shortest);
      return true;
    }
    return false;
  }

  void emit(NodeId from, const core::Send& send, const NodePath& path,
            const std::vector<NodeId>& endpoints, bool shortest) {
    const NodeId to = send.to;
    // Skip ahead to the last endpoint that already holds the message
    // (the sender itself, or a relay fed by the processed prefix): the
    // chain only needs to start where the message stops being present.
    // A certified path starts at a holder and never passes another one,
    // so it always starts at its front.
    std::size_t start = 0;
    for (std::size_t i = 0; i + 1 < endpoints.size(); ++i) {
      if (endpoints[i] == from || received_[endpoints[i]]) start = i;
    }
    Repair repair{from, to, path, {}, shortest};
    NodeId carrier = endpoints[start];
    int emitted_hops = 0;
    for (std::size_t i = start + 1; i < endpoints.size(); ++i) {
      const NodeId w = endpoints[i];
      emitted_hops += topo_.distance(carrier, w);
      if (w == to) {
        deliver(carrier, w, send.payload);
      } else {
        // A relay's payload is its strict descendants in the *final*
        // tree: the rest of the chain, the target and its subtree, and
        // — for every chain-fed endpoint from w itself downward — that
        // endpoint's base subtree, which will flow out of it once the
        // chain has fed it.
        relay_payload_.assign(
            endpoints.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            endpoints.end());
        relay_payload_.insert(relay_payload_.end(), send.payload.begin(),
                              send.payload.end());
        for (std::size_t j = i; j + 1 < endpoints.size(); ++j) {
          const NodeId e = endpoints[j];
          if (planned_[e] && !received_[e] && table_ &&
              base_send_[e] != nullptr) {
            relay_payload_.insert(relay_payload_.end(),
                                  base_send_[e]->payload.begin(),
                                  base_send_[e]->payload.end());
          }
        }
        if (planned_[w] && !received_[w]) {
          // Chain feeding: this planned recipient's delivery moves onto
          // the chain; its base incoming send is skipped when it
          // dequeues, and its own base sends still run from it.
          ++report_.chain_fed;
          release_base_arcs(w);
        } else if (!planned_[w]) {
          planned_[w] = true;
          repair.relays.push_back(w);
        }
        deliver(carrier, w, relay_payload_);
      }
      carrier = w;
    }
    report_.relay_nodes_added += repair.relays.size();
    // Hops the repaired chain actually transmits minus the broken
    // unicast's E-cube distance. Can be negative: a chain that
    // short-circuits through a node already holding the message sends
    // fewer hops than the original route would have.
    report_.extra_hops += emitted_hops - topo_.distance(from, to);
    if (shortest) {
      ++report_.rerouted_shortest;
    } else {
      ++report_.relayed;
    }
    report_.repairs.push_back(std::move(repair));
  }

  const core::MulticastSchedule& base_;
  const FaultSet& faults_;
  Topology topo_;
  core::MulticastSchedule out_;
  std::optional<core::ArcOwnerTable> table_;  ///< certified tier only
  int self_;
  std::vector<bool> planned_;   ///< will receive in the final schedule
  std::vector<bool> received_;  ///< receive already emitted (or source)
  std::vector<NodeId> holders_;  ///< received, in delivery order
  // Certified tier only: the indexed base tree and which base sends
  // have already handed their arcs back.
  std::vector<char> released_;
  std::vector<NodeId> base_parent_;
  std::vector<const core::Send*> base_send_;
  std::deque<Item> queue_;
  std::vector<NodeId> relay_payload_;   ///< emit() scratch
  std::size_t consecutive_defers_ = 0;  ///< defers since the last delivery
  bool failed_ = false;  ///< certified tier: no disjoint repair exists
  RepairReport report_;
};

}  // namespace

std::string RepairReport::summary() const {
  std::ostringstream os;
  os << "repair: " << unicasts_checked << " unicasts checked, " << broken
     << " broken (" << rerouted_shortest << " shortest detours, " << relayed
     << " relayed), " << chain_fed << " chain-fed, " << dead_relays_bypassed
     << " dead relays bypassed, " << relay_nodes_added
     << " relay nodes added, +" << extra_hops << " hops, "
     << contention_violations << " contention violation"
     << (contention_violations == 1 ? "" : "s");
  return os.str();
}

std::optional<RepairResult> repair(const core::MulticastSchedule& base,
                                   std::span<const NodeId> destinations,
                                   const FaultSet& faults,
                                   core::ArcOwnerTable* claims, int self) {
  HYPERCAST_OBS_SPAN("fault.repair");
  std::optional<RepairResult> out =
      Repairer(base, destinations, faults, claims, self).run(claims);
  if (obs::stats_enabled()) {
    obs::Registry& r = obs::default_registry();
    static obs::Counter* const calls = &r.counter("fault.repair_calls");
    static obs::Counter* const infeasible =
        &r.counter("fault.repair_infeasible");
    static obs::Counter* const broken = &r.counter("fault.broken");
    static obs::Counter* const rerouted =
        &r.counter("fault.rerouted_shortest");
    static obs::Counter* const relayed = &r.counter("fault.relayed");
    static obs::Counter* const chain_fed = &r.counter("fault.chain_fed");
    static obs::Counter* const relays_added =
        &r.counter("fault.relay_nodes_added");
    static obs::Counter* const dead_bypassed =
        &r.counter("fault.dead_relays_bypassed");
    calls->inc();
    if (!out) {
      infeasible->inc();
      return out;
    }
    broken->add(out->report.broken);
    rerouted->add(out->report.rerouted_shortest);
    relayed->add(out->report.relayed);
    chain_fed->add(out->report.chain_fed);
    relays_added->add(out->report.relay_nodes_added);
    dead_bypassed->add(out->report.dead_relays_bypassed);
  }
  return out;
}

RepairResult fault_aware_multicast(const core::AlgorithmEntry& base,
                                   const core::MulticastRequest& request,
                                   const FaultSet& faults) {
  return *repair(base.build(request), request.destinations, faults);
}

std::size_t blocked_unicasts(const core::MulticastSchedule& schedule,
                             const FaultSet& faults) {
  std::size_t blocked = 0;
  for (const core::Unicast& u : schedule.unicasts()) {
    if (faults.path_blocked(u.from, u.to)) ++blocked;
  }
  return blocked;
}

}  // namespace hypercast::fault
