#ifndef HYPERCAST_SIM_COST_MODEL_HPP
#define HYPERCAST_SIM_COST_MODEL_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hcube/types.hpp"

namespace hypercast::sim {

/// Simulated time in nanoseconds. All latencies are integral to keep the
/// discrete-event simulation exactly deterministic.
using SimTime = std::int64_t;

constexpr SimTime microseconds(std::int64_t us) { return us * 1000; }
constexpr double to_microseconds(SimTime t) {
  return static_cast<double>(t) / 1000.0;
}

/// Communication cost parameters of a wormhole-routed machine.
///
/// The defaults approximate published nCUBE-2 figures (the machine of
/// Section 5.2): software send startup on the order of 160 us, receive
/// overhead of tens of us, a ~2 us per-hop router latency, and DMA link
/// bandwidth around 2.2 MB/s (~0.45 us/byte). Absolute values are
/// configurable; the paper's observed *shapes* — startup-dominated
/// steps, distance-insensitive unicast latency, serialization penalties —
/// depend only on their ratios.
struct CostModel {
  SimTime send_startup = microseconds(160);  ///< CPU cost per send call
  SimTime recv_overhead = microseconds(80);  ///< CPU cost per receive
  SimTime per_hop = microseconds(2);         ///< header routing per channel
  std::int64_t ns_per_byte = 450;            ///< link streaming rate

  /// Time for the message body to stream across the path once the
  /// header has arrived (wormhole pipelining: one link's worth).
  constexpr SimTime body_time(std::size_t bytes) const {
    return static_cast<SimTime>(bytes) * ns_per_byte;
  }

  /// Closed-form latency of a contention-free unicast over `hops`
  /// channels: startup + header walk + body streaming + receive.
  /// The DES reproduces this exactly when nothing blocks (tested).
  constexpr SimTime unicast_latency(int hops, std::size_t bytes) const {
    return send_startup + hops * per_hop + body_time(bytes) + recv_overhead;
  }

  static constexpr CostModel ncube2() { return CostModel{}; }

  /// A hypothetical fast-network machine (low startup, fast links);
  /// useful in ablations to show which conclusions survive different
  /// cost regimes.
  static constexpr CostModel fast_network() {
    return CostModel{microseconds(10), microseconds(5), 500, 10};
  }
};

/// The processor model every DES engine shares. Each node's CPU
/// serializes its software costs: one send startup per unicast, issued
/// in call order, and one receive overhead per arrival, each starting no
/// earlier than the CPU is free. The network side (channels, ports,
/// blocking) is the engines' business; this is the whole CPU side.
class Processors {
 public:
  Processors(const CostModel& cost, std::size_t num_nodes)
      : send_startup_(cost.send_startup),
        recv_overhead_(cost.recv_overhead),
        free_(num_nodes, 0) {}

  /// `node` issues one unicast once it is `ready`: returns the header
  /// start, max(free, ready) + send_startup, which the CPU is busy until.
  SimTime send(hcube::NodeId node, SimTime ready) {
    SimTime& free = free_[node];
    free = std::max(free, ready) + send_startup_;
    return free;
  }

  /// `node` copies out a message whose tail arrived at `tail`, plus
  /// `extra` CPU work (a reduction's fold): returns the done time,
  /// max(free, tail) + recv_overhead + extra.
  SimTime receive(hcube::NodeId node, SimTime tail, SimTime extra = 0) {
    SimTime& free = free_[node];
    free = std::max(free, tail) + recv_overhead_ + extra;
    return free;
  }

  /// When the send whose header started at `header_start` was issued
  /// (its startup began) — a trace's `issue`.
  SimTime issued(SimTime header_start) const {
    return header_start - send_startup_;
  }

 private:
  SimTime send_startup_;
  SimTime recv_overhead_;
  std::vector<SimTime> free_;  ///< per node: when its CPU is next free
};

}  // namespace hypercast::sim

#endif  // HYPERCAST_SIM_COST_MODEL_HPP
