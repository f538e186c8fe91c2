#include "core/multicast.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/channel_load.hpp"

namespace hypercast::core {

void MulticastRequest::validate() const {
  if (!topo.contains(source)) {
    throw std::invalid_argument("multicast source outside the cube");
  }
  // One bit per node: duplicate and source checks in a single linear
  // pass (no hashing, no rescans).
  std::vector<std::uint64_t> seen((topo.num_nodes() + 63) / 64, 0);
  for (const NodeId d : destinations) {
    if (!topo.contains(d)) {
      throw std::invalid_argument("multicast destination outside the cube");
    }
    if (d == source) {
      throw std::invalid_argument("source listed as a destination");
    }
    std::uint64_t& word = seen[d >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (d & 63);
    if (word & bit) {
      throw std::invalid_argument("duplicate destination");
    }
    word |= bit;
  }
}

void MulticastSchedule::reset(Topology topo, NodeId source) {
  topo_ = std::move(topo);
  source_ = source;
  raw_.clear();
  pool_.clear();
  view_.clear();
  dirty_ = true;
  footprint_.reset();
}

void MulticastSchedule::assign_translated(const MulticastSchedule& relative,
                                          NodeId mask) {
  topo_ = relative.topo_;
  source_ = relative.source_ ^ mask;
  footprint_.reset();
  raw_.resize(relative.raw_.size());
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSend& r = relative.raw_[i];
    raw_[i] = RawSend{r.from ^ mask, r.to ^ mask, r.pool_begin, r.pool_len};
  }
  pool_.resize(relative.pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_[i] = relative.pool_[i] ^ mask;
  }
  if (relative.dirty_) {
    // No view to translate; leave the counting sort to the next accessor.
    view_.clear();
    dirty_ = true;
    return;
  }
  // The relative view is already grouped by sender, and XOR only permutes
  // whole buckets (bucket u here is bucket u ^ mask there, contents in
  // the same stable order), so the translated view is a gather copy —
  // cheaper than re-running finalize()'s counting sort.
  const std::size_t n = topo_.num_nodes();
  begin_.resize(n + 1);
  view_.resize(relative.view_.size());
  const NodeId* rel_pool = relative.pool_.data();
  const NodeId* pool = pool_.data();
  std::uint32_t out = 0;
  for (std::size_t u = 0; u < n; ++u) {
    begin_[u] = out;
    const std::size_t rel = u ^ static_cast<std::size_t>(mask);
    for (std::uint32_t j = relative.begin_[rel]; j < relative.begin_[rel + 1];
         ++j) {
      const Send& s = relative.view_[j];
      const std::size_t offset =
          s.payload.empty() ? 0
                            : static_cast<std::size_t>(s.payload.data() -
                                                       rel_pool);
      view_[out++] = Send{s.to ^ mask, std::span<const NodeId>(
                                           pool + offset, s.payload.size())};
    }
  }
  begin_[n] = out;
  cursor_.clear();
  dirty_ = false;
}

std::size_t MulticastSchedule::footprint_bytes() const {
  std::size_t bytes =
      sizeof(MulticastSchedule) + raw_.capacity() * sizeof(RawSend) +
      pool_.capacity() * sizeof(NodeId) + view_.capacity() * sizeof(Send) +
      begin_.capacity() * sizeof(std::uint32_t) +
      cursor_.capacity() * sizeof(std::uint32_t);
  if (const ArcFootprint* fp = footprint_.get()) {
    bytes += sizeof(ArcFootprint) +
             fp->arcs.capacity() * sizeof(fp->arcs.front());
  }
  return bytes;
}

const ArcFootprint& MulticastSchedule::footprint() const {
  if (const ArcFootprint* fp = footprint_.get()) return *fp;
  return footprint_.publish(arc_footprint(topo_, *this));
}

MulticastSchedule::FootprintMemo& MulticastSchedule::FootprintMemo::operator=(
    FootprintMemo&& other) noexcept {
  if (this != &other) {
    reset();
    ptr_.store(other.ptr_.exchange(nullptr, std::memory_order_acq_rel),
               std::memory_order_release);
  }
  return *this;
}

const ArcFootprint& MulticastSchedule::FootprintMemo::publish(
    ArcFootprint&& fp) const {
  auto owned = std::make_unique<const ArcFootprint>(std::move(fp));
  const ArcFootprint* expected = nullptr;
  if (ptr_.compare_exchange_strong(expected, owned.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *owned.release();
  }
  return *expected;  // another thread published first; ours is dropped
}

void MulticastSchedule::FootprintMemo::drop() noexcept {
  delete ptr_.exchange(nullptr, std::memory_order_acq_rel);
}

bool operator==(const MulticastSchedule& a, const MulticastSchedule& b) {
  if (a.topo_ != b.topo_ || a.source_ != b.source_ ||
      a.raw_.size() != b.raw_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.raw_.size(); ++i) {
    const MulticastSchedule::RawSend& ra = a.raw_[i];
    const MulticastSchedule::RawSend& rb = b.raw_[i];
    if (ra.from != rb.from || ra.to != rb.to || ra.pool_len != rb.pool_len) {
      return false;
    }
    const NodeId* pa = a.pool_.data() + ra.pool_begin;
    const NodeId* pb = b.pool_.data() + rb.pool_begin;
    if (!std::equal(pa, pa + ra.pool_len, pb)) return false;
  }
  return true;
}

void MulticastSchedule::reserve(std::size_t sends, std::size_t payload_total) {
  raw_.reserve(sends);
  pool_.reserve(payload_total);
}

void MulticastSchedule::add_send(NodeId from, NodeId to,
                                 std::span<const NodeId> payload) {
  RawSend raw;
  raw.from = from;
  raw.to = to;
  raw.pool_begin = static_cast<std::uint32_t>(pool_.size());
  raw.pool_len = static_cast<std::uint32_t>(payload.size());
  // The payload may alias pool_ itself (a schedule forwarding one of
  // its own sends), which reallocation would invalidate — copy through
  // a temporary index loop after the resize re-reads the span only when
  // it points elsewhere.
  if (!payload.empty()) {
    const NodeId* src = payload.data();
    const bool aliases_pool =
        !pool_.empty() && src >= pool_.data() && src < pool_.data() + pool_.size();
    const std::size_t src_offset =
        aliases_pool ? static_cast<std::size_t>(src - pool_.data()) : 0;
    pool_.resize(pool_.size() + payload.size());
    const NodeId* base = aliases_pool ? pool_.data() + src_offset : src;
    NodeId* dst = pool_.data() + raw.pool_begin;
    for (std::size_t i = 0; i < raw.pool_len; ++i) dst[i] = base[i];
  }
  raw_.push_back(raw);
  dirty_ = true;
  footprint_.reset();
}

void MulticastSchedule::finalize() const {
  if (!dirty_) return;
  const std::size_t n = topo_.num_nodes();
  // Counting sort by sender, stable in append order per sender.
  begin_.assign(n + 1, 0);
  for (const RawSend& r : raw_) ++begin_[static_cast<std::size_t>(r.from) + 1];
  for (std::size_t i = 1; i <= n; ++i) begin_[i] += begin_[i - 1];
  cursor_.assign(begin_.begin(), begin_.end() - 1);
  view_.resize(raw_.size());
  const NodeId* pool = pool_.data();
  for (const RawSend& r : raw_) {
    view_[cursor_[r.from]++] =
        Send{r.to, std::span<const NodeId>(pool + r.pool_begin, r.pool_len)};
  }
  dirty_ = false;
}

std::vector<Unicast> MulticastSchedule::unicasts() const {
  std::vector<Unicast> out;
  out.reserve(raw_.size());
  // BFS with a flat frontier; a schedule is a tree, so nodes never
  // repeat and the frontier is bounded by the send count.
  std::vector<NodeId> frontier{source_};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    int issue = 0;
    for (const Send& s : sends_from(u)) {
      out.push_back(Unicast{u, s.to, issue++});
      frontier.push_back(s.to);
    }
  }
  return out;
}

std::vector<NodeId> MulticastSchedule::recipients() const {
  std::vector<NodeId> out;
  out.reserve(raw_.size());
  for (const Unicast& u : unicasts()) out.push_back(u.to);
  return out;
}

std::vector<NodeId> MulticastSchedule::senders() const {
  finalize();
  std::vector<NodeId> out;
  for (std::size_t u = 0; u + 1 < begin_.size(); ++u) {
    if (begin_[u + 1] > begin_[u]) out.push_back(static_cast<NodeId>(u));
  }
  return out;
}

void MulticastSchedule::validate() const {
  std::unordered_set<NodeId> received;
  received.insert(source_);
  std::size_t tree_sends = 0;
  std::vector<NodeId> frontier{source_};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    for (const Send& s : sends_from(u)) {
      ++tree_sends;
      if (!topo_.contains(s.to)) {
        throw std::logic_error("schedule sends outside the cube");
      }
      if (s.to == u) {
        throw std::logic_error("schedule contains a self-send");
      }
      if (!received.insert(s.to).second) {
        throw std::logic_error("node " + topo_.format(s.to) +
                               " receives the message more than once");
      }
      frontier.push_back(s.to);
    }
  }
  if (tree_sends != raw_.size()) {
    throw std::logic_error(
        "schedule contains sends from nodes that never receive the message");
  }
}

bool MulticastSchedule::covers(std::span<const NodeId> dests) const {
  const auto recv = recipients();
  const std::unordered_set<NodeId> got(recv.begin(), recv.end());
  for (const NodeId d : dests) {
    if (d != source_ && !got.contains(d)) return false;
  }
  return true;
}

std::vector<NodeId> MulticastSchedule::relay_processors(
    std::span<const NodeId> dests) const {
  const std::unordered_set<NodeId> want(dests.begin(), dests.end());
  std::vector<NodeId> relays;
  for (const NodeId r : recipients()) {
    if (!want.contains(r)) relays.push_back(r);
  }
  return relays;
}

std::string MulticastSchedule::format_tree() const {
  std::ostringstream os;
  // Depth-first rendering with indentation; children in issue order.
  struct Frame {
    NodeId node;
    int depth;
  };
  std::vector<Frame> stack{{source_, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    for (int i = 0; i < f.depth; ++i) os << "  ";
    os << topo_.format(f.node) << '\n';
    const auto sends = sends_from(f.node);
    // Push in reverse so that issue order renders top-to-bottom.
    for (auto it = sends.rbegin(); it != sends.rend(); ++it) {
      stack.push_back(Frame{it->to, f.depth + 1});
    }
  }
  return os.str();
}

}  // namespace hypercast::core
