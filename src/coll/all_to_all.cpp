#include "coll/all_to_all.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/worm_engine.hpp"

namespace hypercast::coll {

namespace {

using hcube::NodeId;
using hcube::Topology;
using sim::SimTime;

class ExchangeEngine {
 public:
  ExchangeEngine(const Topology& topo, const AllToAllConfig& config)
      : topo_(topo),
        config_(config),
        worms_(topo, config.cost, config.port, queue_, nullptr,
               config.record_trace) {
    worms_.set_delivery_handler(
        [](void* ctx, sim::MessageId m, SimTime tail) {
          ExchangeEngine* e = static_cast<ExchangeEngine*>(ctx);
          e->received(e->worms_.destination(m), m, tail);
        },
        this);
    kind_round_ = queue_.register_handler(
        [](void* ctx, std::uint32_t u) {
          static_cast<ExchangeEngine*>(ctx)->begin_round(u);
        },
        this);
  }

  AllToAllResult run() {
    const std::size_t n_nodes = topo_.num_nodes();
    round_.assign(n_nodes, 0);
    if (topo_.dim() == 0) return std::move(result_);
    for (NodeId u = 0; u < n_nodes; ++u) {
      begin_round(u);
    }
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  /// The dimension exchanged in logical round r follows the resolution
  /// order (the same order E-cube would route, for cache of thought;
  /// any fixed order works).
  hcube::Dim round_dim(int r) const {
    return topo_.resolution() == hcube::Resolution::HighToLow
               ? topo_.dim() - 1 - r
               : r;
  }

  std::size_t round_bytes() const {
    return (topo_.num_nodes() / 2) * config_.block_bytes;
  }

  /// `u` sends its next round's exchange: at now(), and no earlier
  /// than its CPU frees up.
  void begin_round(NodeId u) {
    worms_.send(u, topo_.neighbor(u, round_dim(round_[u])), round_bytes(),
                queue_.now());
    ++result_.stats.messages;
  }

  void received(NodeId u, sim::MessageId id, SimTime tail) {
    const SimTime done = worms_.receive(id, tail);
    const int r = ++round_[u];
    if (r < topo_.dim()) {
      queue_.schedule(done, kind_round_, u);
    } else {
      result_.finish[u] = done;
      result_.completion = std::max(result_.completion, done);
    }
  }

  void finish() {
    worms_.finish(result_.stats, result_.trace);
    if (result_.finish.size() != topo_.num_nodes()) {
      throw std::logic_error("all-to-all drained before completing");
    }
  }

  Topology topo_;
  AllToAllConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  std::uint16_t kind_round_ = 0;
  std::vector<int> round_;
  AllToAllResult result_;
};

}  // namespace

AllToAllResult simulate_all_to_all(const Topology& topo,
                                   const AllToAllConfig& config) {
  return ExchangeEngine(topo, config).run();
}

SimTime all_to_all_latency(const Topology& topo,
                           const AllToAllConfig& config) {
  const SimTime per_round =
      config.cost.send_startup + config.cost.per_hop +
      config.cost.body_time((topo.num_nodes() / 2) * config.block_bytes) +
      config.cost.recv_overhead;
  return topo.dim() * per_round;
}

}  // namespace hypercast::coll
