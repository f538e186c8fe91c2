#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hypercast::sim {

Network::Network(const Topology& topo, PortModel port,
                 const fault::FaultSet* faults)
    : topo_(topo),
      faults_(faults),
      num_external_(static_cast<std::uint32_t>(topo.num_arcs())) {
  const std::size_t total = topo.num_arcs() + 2 * topo.num_nodes();
  const int pool_capacity =
      std::clamp(port.concurrency(topo.dim()), 1, 255);
  units_.assign(total, std::uint16_t{1});
  for (std::size_t i = topo.num_arcs(); i < total; ++i) {
    units_[i] = static_cast<std::uint16_t>(pool_capacity);
  }
  waiter_tail_.assign(total, kNone);
}

std::vector<ResourceId> Network::path_resources(NodeId from, NodeId to) const {
  std::vector<ResourceId> out;
  out.reserve(static_cast<std::size_t>(topo_.distance(from, to)) + 2);
  append_path_resources(from, to, out);
  return out;
}

void Network::append_path_resources(NodeId from, NodeId to,
                                    std::vector<ResourceId>& out) const {
  assert(from != to);
  if (faults_ != nullptr &&
      (faults_->node_failed(from) || faults_->node_failed(to))) {
    throw std::logic_error("worm injected at/addressed to dead node " +
                           topo_.format(faults_->node_failed(from) ? from
                                                                   : to));
  }
  // No reserve here: an exact reserve on every append would defeat the
  // geometric growth of the engine's pooled path buffer (quadratic
  // copying); callers wanting tight capacity reserve up front.
  out.push_back(injection_pool(from));
  hcube::for_each_ecube_arc(topo_, from, to, [&](hcube::Arc a) {
    if (faults_ != nullptr && faults_->arc_failed(a)) {
      throw std::logic_error(
          "worm " + topo_.format(from) + " -> " + topo_.format(to) +
          " routed into failed channel " + topo_.format(a.from) + " -> " +
          topo_.format(topo_.neighbor(a.from, a.dim)) +
          " (schedule is not fault-aware?)");
    }
    out.push_back(external_arc(a));
  });
  out.push_back(consumption_pool(to));
}

void Network::enqueue(ResourceId r, MessageId m) {
  assert(!available(r));
  if (m >= waiter_next_.size()) {
    waiter_next_.resize(static_cast<std::size_t>(m) + 1, kNone);
  }
  ++waiting_;
  const MessageId tail = waiter_tail_[r.index];
  if (tail == kNone) {
    waiter_next_[m] = m;  // singleton circle: m is head and tail
  } else {
    waiter_next_[m] = waiter_next_[tail];  // new tail wraps to the head
    waiter_next_[tail] = m;
  }
  waiter_tail_[r.index] = m;
}

std::size_t Network::waiting_count(ResourceId r) const {
  const MessageId tail = waiter_tail_[r.index];
  if (tail == kNone) return 0;
  std::size_t n = 1;
  for (MessageId m = waiter_next_[tail]; m != tail; m = waiter_next_[m]) {
    ++n;
  }
  return n;
}

std::size_t Network::memory_bytes() const {
  return units_.capacity() * sizeof(std::uint16_t) +
         waiter_tail_.capacity() * sizeof(MessageId) +
         waiter_next_.capacity() * sizeof(MessageId);
}

}  // namespace hypercast::sim
