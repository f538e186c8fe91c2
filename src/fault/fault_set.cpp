#include "fault/fault_set.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

#include "core/cache_key.hpp"

namespace hypercast::fault {

namespace {

constexpr std::uint32_t kDeadNodeTag = std::uint32_t{1} << 31;

void insert_sorted(std::vector<std::uint32_t>& ids, std::uint32_t id) {
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

}  // namespace

Link link_of(const Topology& topo, Arc a) {
  const NodeId other = topo.neighbor(a.from, a.dim);
  return Link{std::min(a.from, other), a.dim};
}

FaultSet::FaultSet(const Topology& topo)
    : topo_(topo),
      link_down_(topo.num_arcs(), false),
      dead_node_(topo.num_nodes(), false) {}

void FaultSet::fail_link(NodeId u, Dim d) {
  if (!topo_.contains(u) || !topo_.valid_dim(d)) {
    throw std::invalid_argument("fail_link: endpoint or dimension outside cube");
  }
  const Link link = link_of(topo_, Arc{u, d});
  const std::size_t idx = topo_.arc_index(Arc{link.low, link.dim});
  if (link_down_[idx]) return;
  link_down_[idx] = true;
  failed_links_.push_back(link);
  insert_sorted(ids_, static_cast<std::uint32_t>(idx));
}

void FaultSet::fail_node(NodeId u) {
  if (!topo_.contains(u)) {
    throw std::invalid_argument("fail_node: node outside cube");
  }
  if (dead_node_[u]) return;
  dead_node_[u] = true;
  failed_nodes_.push_back(u);
  insert_sorted(ids_, kDeadNodeTag | static_cast<std::uint32_t>(u));
}

bool FaultSet::link_failed(NodeId u, Dim d) const {
  const Link link = link_of(topo_, Arc{u, d});
  return link_down_[topo_.arc_index(Arc{link.low, link.dim})];
}

bool FaultSet::arc_failed(Arc a) const {
  return link_failed(a.from, a.dim) || dead_node_[a.from] ||
         dead_node_[topo_.neighbor(a.from, a.dim)];
}

bool FaultSet::path_blocked(NodeId u, NodeId v) const {
  if (dead_node_[u] || dead_node_[v]) return true;
  NodeId cur = u;
  for (const Dim d : hcube::route_dims(topo_, u, v)) {
    if (arc_failed(Arc{cur, d})) return true;
    cur = topo_.neighbor(cur, d);
  }
  return false;
}

std::vector<NodeId> FaultSet::live_nodes() const {
  std::vector<NodeId> out;
  out.reserve(topo_.num_nodes() - failed_nodes_.size());
  for (NodeId u = 0; u < static_cast<NodeId>(topo_.num_nodes()); ++u) {
    if (!dead_node_[u]) out.push_back(u);
  }
  return out;
}

bool FaultSet::surviving_connected() const {
  const auto live = live_nodes();
  if (live.size() <= 1) return true;
  std::vector<bool> seen(topo_.num_nodes(), false);
  std::deque<NodeId> frontier{live.front()};
  seen[live.front()] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (Dim d = 0; d < topo_.dim(); ++d) {
      if (arc_failed(Arc{u, d})) continue;
      const NodeId v = topo_.neighbor(u, d);
      if (!seen[v]) {
        seen[v] = true;
        ++reached;
        frontier.push_back(v);
      }
    }
  }
  return reached == live.size();
}

std::uint64_t FaultSet::fingerprint(std::uint64_t seed) const {
  return core::hash_words(ids_, seed);
}

std::string FaultSet::format() const {
  std::ostringstream os;
  os << failed_links_.size() << " failed link"
     << (failed_links_.size() == 1 ? "" : "s");
  if (!failed_links_.empty()) {
    os << " (";
    for (std::size_t i = 0; i < failed_links_.size(); ++i) {
      if (i) os << ", ";
      const Link& l = failed_links_[i];
      os << topo_.format(l.low) << '-'
         << topo_.format(topo_.neighbor(l.low, l.dim));
    }
    os << ')';
  }
  os << ", " << failed_nodes_.size() << " dead node"
     << (failed_nodes_.size() == 1 ? "" : "s");
  if (!failed_nodes_.empty()) {
    os << " (";
    for (std::size_t i = 0; i < failed_nodes_.size(); ++i) {
      if (i) os << ", ";
      os << topo_.format(failed_nodes_[i]);
    }
    os << ')';
  }
  return os.str();
}

}  // namespace hypercast::fault
