#ifndef HYPERCAST_CORE_CHANNEL_LOAD_HPP
#define HYPERCAST_CORE_CHANNEL_LOAD_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/stepwise.hpp"

namespace hypercast::core {

/// Channel-load analysis of a multicast schedule: how the constituent
/// unicasts distribute over the network's directed channels. Contention
/// avoidance is load spreading in disguise — a channel crossed by k
/// unicasts serializes them over at least k time slots — so these
/// figures explain *why* the all-port algorithms win before any
/// simulation is run.
struct ChannelLoadReport {
  std::size_t channels_used = 0;   ///< distinct directed channels crossed
  std::size_t total_crossings = 0; ///< sum of per-channel loads
  std::size_t max_load = 0;        ///< most-crossed channel
  double avg_load = 0.0;           ///< total / used
  /// load_histogram[k] = number of channels crossed exactly k times
  /// (index 0 unused).
  std::vector<std::size_t> load_histogram;

  /// Max unicasts departing any single node in one step — 1 for
  /// schedules that perfectly exploit distinct channels.
  std::size_t max_step_channel_reuse = 0;
};

/// Analyse the E-cube footprints of every unicast in the schedule.
/// `steps` supplies the timing used for the per-step reuse figure
/// (pass assign_steps(schedule, port)).
ChannelLoadReport analyze_channel_load(const MulticastSchedule& schedule,
                                       const StepResult& steps);

/// The sparse per-arc crossing profile of one schedule: which directed
/// channels its unicasts' E-cube routes traverse, and how many times.
/// Entries are (dense arc index, multiplicity), sorted by arc index, so
/// footprints of different trees can be compared and summed without
/// re-walking the routes.
struct ArcFootprint {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs;
  std::uint32_t self_max = 0;  ///< max multiplicity over `arcs` — the
                               ///< floor any co-schedule pays for this
                               ///< tree alone

  std::size_t total_crossings() const {
    std::size_t total = 0;
    for (const auto& [arc, count] : arcs) total += count;
    return total;
  }
};

/// Walk every unicast's E-cube route and collect the schedule's
/// footprint. The schedule must belong to `topo` (same dimension).
/// Served trees are shared and immutable: read their memoized
/// MulticastSchedule::footprint(), which calls this once per tree.
ArcFootprint arc_footprint(const Topology& topo,
                           const MulticastSchedule& schedule);

/// The union footprint of several schedules launched as one unit:
/// per-arc multiplicities summed, self_max recomputed. This is how a
/// striped collective (n trees in flight at once) presents itself to
/// the co-scheduler — one candidate whose footprint is the sum of its
/// trees'. Arc-disjoint parts merge with self_max = max over parts.
ArcFootprint merge_footprints(std::span<const ArcFootprint* const> parts);

/// A reusable flat per-arc load accumulator — the dense counter array
/// analyze_channel_load keeps internally, promoted to a shared data
/// structure so several schedules can be scored against one load map
/// (the co-scheduler's admission test). Indexed by the dense arc index;
/// O(num_arcs) storage, O(footprint) updates.
class ChannelLoadMap {
 public:
  ChannelLoadMap() = default;
  explicit ChannelLoadMap(const Topology& topo) { reset(topo); }

  /// Size (or resize) for `topo` and zero every counter.
  void reset(const Topology& topo) {
    load_.assign(topo.num_arcs(), 0);
  }
  /// Zero every counter, keeping the current size.
  void clear() { std::fill(load_.begin(), load_.end(), 0u); }

  std::size_t num_arcs() const { return load_.size(); }
  std::uint32_t load(std::size_t arc) const { return load_[arc]; }

  /// Peak load over the whole map.
  std::uint32_t max_load() const {
    std::uint32_t peak = 0;
    for (const std::uint32_t v : load_) peak = std::max(peak, v);
    return peak;
  }

  /// Peak resulting load over `fp`'s arcs if it were added — the
  /// admission score. Does not mutate the map.
  std::uint32_t peak_if_added(const ArcFootprint& fp) const {
    std::uint32_t peak = 0;
    for (const auto& [arc, count] : fp.arcs) {
      peak = std::max(peak, load_[arc] + count);
    }
    return peak;
  }

  /// Accumulate `fp` into the map; returns the peak load over the arcs
  /// it touched.
  std::uint32_t add(const ArcFootprint& fp) {
    std::uint32_t peak = 0;
    for (const auto& [arc, count] : fp.arcs) {
      load_[arc] += count;
      peak = std::max(peak, load_[arc]);
    }
    return peak;
  }

 private:
  std::vector<std::uint32_t> load_;
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_CHANNEL_LOAD_HPP
