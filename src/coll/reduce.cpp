#include "coll/reduce.hpp"

#include <cassert>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/worm_engine.hpp"

namespace hypercast::coll {

namespace {

using hcube::NodeId;
using sim::SimTime;

class ReduceEngine {
 public:
  ReduceEngine(const core::MulticastSchedule& tree, const ReduceConfig& config)
      : tree_(tree),
        config_(config),
        worms_(tree.topo(), config.cost, config.port, queue_, nullptr,
               config.record_trace) {
    worms_.set_delivery_handler(
        [](void* ctx, sim::MessageId m, SimTime tail) {
          ReduceEngine* e = static_cast<ReduceEngine*>(ctx);
          e->folded(e->worms_.destination(m), m, tail);
        },
        this);
  }

  ReduceResult run() {
    // Dense per-node tables, filled in one reverse walk of unicasts():
    // it lists parents before children, so every child's subtree size
    // (for Gather-mode message growth) is complete before it folds into
    // its parent's.
    const std::size_t nodes = tree_.topo().num_nodes();
    parent_.resize(nodes);
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
    pending_.assign(nodes, 0);
    subtree_size_.assign(nodes, 1);
    const auto unicasts = tree_.unicasts();
    for (auto it = unicasts.rbegin(); it != unicasts.rend(); ++it) {
      parent_[it->to] = it->from;
      ++pending_[it->from];
      subtree_size_[it->from] += subtree_size_[it->to];
    }

    // Everyone enters at t = 0; leaves send immediately, in ascending
    // node order (which fixes the order of same-time injections).
    for (NodeId node = 0; node < nodes; ++node) {
      if (node != parent_[node] && pending_[node] == 0) {
        send_to_parent(node, 0);
      }
    }
    if (unicasts.empty()) {
      // Root alone: nothing to reduce.
      result_.completion = 0;
    }
    queue_.run_to_completion();
    finish();
    return std::move(result_);
  }

 private:
  std::size_t message_bytes(NodeId sender) const {
    if (config_.mode == ReduceConfig::Mode::Gather) {
      return subtree_size_[sender] * config_.block_bytes;
    }
    return config_.block_bytes;
  }

  void send_to_parent(NodeId node, SimTime ready) {
    result_.send_time[node] =
        worms_.send(node, parent_[node], message_bytes(node), ready);
    ++result_.stats.messages;
  }

  void folded(NodeId node, sim::MessageId id, SimTime tail) {
    // Receive + (in Combine mode) fold into the accumulator; both
    // occupy the receiving CPU.
    const SimTime fold = config_.mode == ReduceConfig::Mode::Combine
                             ? static_cast<SimTime>(config_.block_bytes) *
                                   config_.combine_ns_per_byte
                             : 0;
    const SimTime cpu = worms_.receive(id, tail, fold);

    std::uint32_t& left = pending_[node];
    assert(left > 0);
    if (--left > 0) return;
    if (node == tree_.source()) {
      result_.completion = cpu;
    } else {
      send_to_parent(node, cpu);
    }
  }

  void finish() {
    worms_.finish(result_.stats, result_.trace);
    for (const std::uint32_t count : pending_) {
      if (count != 0) {
        throw std::logic_error("reduction finished with unfolded children");
      }
    }
  }

  const core::MulticastSchedule& tree_;
  ReduceConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  /// Per node: its parent (itself for the source and non-participants),
  /// children not yet folded, and subtree size (itself included).
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::size_t> subtree_size_;
  ReduceResult result_;
};

}  // namespace

ReduceResult simulate_reduce(const core::MulticastSchedule& tree,
                             const ReduceConfig& config) {
  return ReduceEngine(tree, config).run();
}

}  // namespace hypercast::coll
