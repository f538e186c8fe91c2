#include "coll/reduce.hpp"

#include <cassert>
#include <stdexcept>

#include "core/reachable.hpp"
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
    const auto info = core::tree_info(tree_);
    parent_ = info.parent;

    // Subtree sizes (for Gather-mode message growth) and child counts.
    const auto reach = core::all_reachable_sets(tree_);
    for (const auto& [node, set] : reach) {
      subtree_size_[node] = set.size();
    }
    pending_[tree_.source()] = tree_.sends_from(tree_.source()).size();
    for (const NodeId r : tree_.recipients()) {
      pending_[r] = tree_.sends_from(r).size();
    }

    // Everyone enters at t = 0; leaves send immediately.
    for (const auto& [node, count] : pending_) {
      if (count == 0 && node != tree_.source()) {
        send_to_parent(node, 0);
      }
    }
    if (pending_.size() == 1) {
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
      return subtree_size_.at(sender) * config_.block_bytes;
    }
    return config_.block_bytes;
  }

  void send_to_parent(NodeId node, SimTime ready) {
    const auto it = parent_.find(node);
    assert(it != parent_.end());
    result_.send_time[node] =
        worms_.send(node, it->second, message_bytes(node), ready);
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

    auto& left = pending_.at(node);
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
    for (const auto& [node, count] : pending_) {
      if (count != 0) {
        throw std::logic_error("reduction finished with unfolded children");
      }
    }
  }

  const core::MulticastSchedule& tree_;
  ReduceConfig config_;
  sim::EventQueue queue_;
  sim::WormEngine worms_;
  std::unordered_map<NodeId, NodeId> parent_;
  std::unordered_map<NodeId, std::size_t> subtree_size_;
  std::unordered_map<NodeId, std::size_t> pending_;
  ReduceResult result_;
};

}  // namespace

ReduceResult simulate_reduce(const core::MulticastSchedule& tree,
                             const ReduceConfig& config) {
  return ReduceEngine(tree, config).run();
}

}  // namespace hypercast::coll
