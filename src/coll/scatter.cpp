#include "coll/scatter.hpp"

#include <stdexcept>

#include "sim/worm_engine.hpp"

namespace hypercast::coll {

namespace {

using hcube::NodeId;
using sim::SimTime;

class ScatterEngine {
 public:
  ScatterEngine(const core::MulticastSchedule& tree,
                const ScatterConfig& config)
      : tree_(tree),
        config_(config),
        worms_(tree.topo(), config.cost, config.port, queue_, nullptr,
               config.record_trace) {
    worms_.set_delivery_handler(
        [](void* ctx, sim::MessageId m, SimTime tail) {
          static_cast<ScatterEngine*>(ctx)->delivered(m, tail);
        },
        this);
    kind_start_ = queue_.register_handler(
        [](void* ctx, std::uint32_t node) {
          static_cast<ScatterEngine*>(ctx)->start_node(node);
        },
        this);
  }

  sim::SimResult run() {
    result_.delivery.reserve(tree_.num_unicasts());
    start_node(tree_.source());
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  /// `node` forwards its subtree bundles once it holds its own: at
  /// now(), and no earlier than its CPU frees up.
  void start_node(NodeId node) {
    for (const core::Send& send : tree_.sends_from(node)) {
      // The bundle for this subtree: the recipient's own block plus one
      // per payload destination.
      const std::size_t bytes =
          (send.payload.size() + 1) * config_.block_bytes;
      worms_.send(node, send.to, bytes, queue_.now());
      ++result_.stats.messages;
    }
  }

  void delivered(sim::MessageId id, SimTime tail) {
    const NodeId node = worms_.destination(id);
    const SimTime done = worms_.receive(id, tail);
    result_.delivery.emplace(node, done);
    queue_.schedule(done, kind_start_, node);
  }

  void finish() {
    worms_.finish(result_.stats, result_.trace);
    if (result_.delivery.size() != result_.stats.messages) {
      throw std::logic_error("scatter delivered a bundle to a node twice");
    }
  }

  const core::MulticastSchedule& tree_;
  ScatterConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  std::uint16_t kind_start_ = 0;
  sim::SimResult result_;
};

}  // namespace

sim::SimResult simulate_scatter(const core::MulticastSchedule& tree,
                                const ScatterConfig& config) {
  return ScatterEngine(tree, config).run();
}

}  // namespace hypercast::coll
