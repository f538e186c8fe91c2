#ifndef HYPERCAST_CORE_MULTICAST_HPP
#define HYPERCAST_CORE_MULTICAST_HPP

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "hcube/chain.hpp"
#include "hcube/ecube.hpp"
#include "hcube/topology.hpp"

namespace hypercast::core {

using hcube::Dim;
using hcube::NodeId;
using hcube::Resolution;
using hcube::Topology;

struct ArcFootprint;  // core/channel_load.hpp

/// A multicast to perform: deliver one message from `source` to every
/// node in `destinations` (distinct, source excluded).
struct MulticastRequest {
  Topology topo;
  NodeId source = 0;
  std::vector<NodeId> destinations;

  /// Throws std::invalid_argument on malformed requests (duplicate or
  /// out-of-range destinations, source listed as a destination).
  /// Linear: one pass over the destinations against a bitset over
  /// topo.num_nodes().
  void validate() const;
};

/// One unicast a node issues as part of a unicast-based multicast: the
/// message goes to `to`, accompanied by the address field `payload` — the
/// destinations `to` becomes responsible for delivering (Definition 3's
/// reachable set of `to`, minus `to` itself).
///
/// The payload is a *view*: sends handed out by MulticastSchedule point
/// into the schedule's contiguous payload pool, and sends returned by
/// local_sends point into the caller's field. Neither owns storage.
struct Send {
  NodeId to = 0;
  std::span<const NodeId> payload;
};

/// A unicast flattened out of a schedule, tagged with its sender's
/// issue position (the order the sender's software would transmit).
struct Unicast {
  NodeId from = 0;
  NodeId to = 0;
  int issue_index = 0;  ///< 0-based position in the sender's send list
};

/// The product of a multicast algorithm: for every participating node,
/// the *ordered* list of unicasts it issues after receiving the message.
/// The order matters — it is the serialization order on a one-port node
/// and the per-channel serialization order on an all-port node.
///
/// A schedule forms a tree rooted at the source: each non-source
/// recipient receives exactly once (validate() enforces this).
///
/// Storage is CSR-style flat arrays: every add_send appends one fixed
/// size record plus its payload to one contiguous pool (no per-send
/// vectors, no per-node map). Accessors group the records per sender
/// into a cached view, rebuilt lazily after mutation; spans obtained
/// from sends_from() are invalidated by the next add_send()/reset().
/// The lazy rebuild means the first accessor call after a mutation is
/// not safe to race with other readers — finalize() first to share a
/// schedule across threads read-only.
class MulticastSchedule {
 public:
  MulticastSchedule(Topology topo, NodeId source)
      : topo_(std::move(topo)), source_(source) {}

  // Copies drop the cached view (it points into the source's pool) and
  // the footprint, and rebuild both lazily against their own storage;
  // moves keep them (the heap buffers move wholesale, so the spans stay
  // valid).
  MulticastSchedule(const MulticastSchedule& other)
      : topo_(other.topo_), source_(other.source_), raw_(other.raw_),
        pool_(other.pool_) {}
  MulticastSchedule& operator=(const MulticastSchedule& other) {
    if (this != &other) {
      topo_ = other.topo_;
      source_ = other.source_;
      raw_ = other.raw_;
      pool_ = other.pool_;
      dirty_ = true;
      view_.clear();
      footprint_.reset();
    }
    return *this;
  }
  MulticastSchedule(MulticastSchedule&&) noexcept = default;
  MulticastSchedule& operator=(MulticastSchedule&&) noexcept = default;

  const Topology& topo() const { return topo_; }
  NodeId source() const { return source_; }

  /// Re-initialize in place, keeping the flat arrays' capacity. This is
  /// what lets TreeBuilder sweeps reach a zero-allocation steady state.
  void reset(Topology topo, NodeId source);

  /// Capacity hint: `sends` future add_send calls carrying
  /// `payload_total` destination ids altogether.
  void reserve(std::size_t sends, std::size_t payload_total);

  /// Become the XOR-relabeling of `relative`: every node id (source,
  /// sender, recipient, payload entry) is XORed with `mask`. This is how
  /// the schedule cache materializes a caller-facing schedule from a
  /// cached source-relative one — a straight linear copy of the flat
  /// arrays (capacity kept, like reset()), with none of the sorting,
  /// validation or worklist cost of a fresh build. The result compares
  /// equal (operator==) to building the translated request directly for
  /// every translation-invariant algorithm. `relative` may not alias
  /// this schedule. When `relative` is finalized the grouped view is
  /// translated too (XOR permutes whole sender buckets, so it is a
  /// gather copy, not a re-sort) and the result is immediately safe to
  /// share; otherwise the view is left dirty — finalize() first.
  void assign_translated(const MulticastSchedule& relative, NodeId mask);

  /// Append a send to `from`'s issue list. The payload is copied into
  /// the schedule's pool (the argument may alias any storage, including
  /// this schedule's own pool).
  void add_send(NodeId from, NodeId to, std::span<const NodeId> payload = {});
  void add_send(NodeId from, NodeId to, std::initializer_list<NodeId> payload) {
    add_send(from, to, std::span<const NodeId>(payload.begin(), payload.size()));
  }

  /// The ordered sends issued by node u (empty list if u sends nothing).
  std::span<const Send> sends_from(NodeId u) const {
    if (dirty_) finalize();
    const auto node = static_cast<std::size_t>(u);
    return {view_.data() + begin_[node], begin_[node + 1] - begin_[node]};
  }

  /// Every send, grouped by sender in ascending node order: the
  /// concatenation of sends_from(u) over all u, without the per-node
  /// walk.
  std::span<const Send> sends() const {
    if (dirty_) finalize();
    return view_;
  }

  /// Build the grouped per-sender view now (idempotent). Called
  /// implicitly by every accessor; calling it explicitly makes the
  /// schedule safe for concurrent read-only use.
  void finalize() const;

  /// The E-cube arc footprint of this schedule (core::arc_footprint),
  /// computed on the first call and kept until the next mutation
  /// (add_send, reset, assign_translated, copy-assignment). A finalized
  /// schedule may be asked from several threads at once: the first
  /// result published wins and every caller gets that same object, so
  /// the reference stays valid until the schedule is mutated or
  /// destroyed.
  const ArcFootprint& footprint() const;

  /// Every node that receives the message (excludes the source), in
  /// breadth-first tree order. Deterministic.
  std::vector<NodeId> recipients() const;

  /// All unicasts in breadth-first tree order (parents before children).
  std::vector<Unicast> unicasts() const;

  /// Total number of unicast messages in the schedule.
  std::size_t num_unicasts() const { return raw_.size(); }

  /// Nodes with at least one outgoing send, including the source if it
  /// sends. Ascending node order.
  std::vector<NodeId> senders() const;

  /// Structural validation: all endpoints in the cube, no self-sends,
  /// every non-source recipient receives exactly once, every sender is
  /// the source or a recipient (i.e. the schedule is a tree rooted at
  /// the source). Throws std::logic_error with a description otherwise.
  void validate() const;

  /// True iff every node of `dests` receives the message.
  bool covers(std::span<const NodeId> dests) const;

  /// Intermediate routers relay worms without processor involvement, but
  /// a *recipient* that is not a requested destination has its processor
  /// handle the message (the cost the paper's Figure 3(a) vs 3(c)
  /// comparison highlights). Returns the recipients not in `dests`.
  std::vector<NodeId> relay_processors(std::span<const NodeId> dests) const;

  /// Multi-line human-readable tree rendering (for examples/debugging).
  std::string format_tree() const;

  /// Heap bytes the flat arrays pin (capacity, not size — what a cache
  /// entry actually holds resident), plus the footprint once computed.
  std::size_t footprint_bytes() const;

  /// Structural equality: same topology, source, and identical append
  /// order of sends with identical payload contents (pool offsets are
  /// an implementation detail and do not participate). This is the
  /// "bit-identical schedule" relation the cache equality tests assert.
  friend bool operator==(const MulticastSchedule& a,
                         const MulticastSchedule& b);

 private:
  /// One add_send record: fixed size, payload in [pool_begin,
  /// pool_begin + pool_len) of pool_.
  struct RawSend {
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t pool_begin = 0;
    std::uint32_t pool_len = 0;
  };

  Topology topo_;
  NodeId source_;
  std::vector<RawSend> raw_;   ///< append order
  std::vector<NodeId> pool_;   ///< all payloads, back to back

  // Cached per-sender grouping (counting-sort by `from`, stable within
  // a sender): node u's sends are view_[begin_[u] .. begin_[u+1]).
  mutable bool dirty_ = true;
  mutable std::vector<Send> view_;
  mutable std::vector<std::uint32_t> begin_;    ///< num_nodes + 1 offsets
  mutable std::vector<std::uint32_t> cursor_;   ///< finalize scratch

  /// Owner of the memoized footprint: published once by compare-and-
  /// swap, so concurrent first callers agree on one object. Moves take
  /// the pointer; the schedule's copy operations leave it empty.
  class FootprintMemo {
   public:
    FootprintMemo() = default;
    FootprintMemo(const FootprintMemo&) = delete;
    FootprintMemo& operator=(const FootprintMemo&) = delete;
    FootprintMemo(FootprintMemo&& other) noexcept
        : ptr_(other.ptr_.exchange(nullptr, std::memory_order_acq_rel)) {}
    FootprintMemo& operator=(FootprintMemo&& other) noexcept;
    ~FootprintMemo() { reset(); }

    const ArcFootprint* get() const {
      return ptr_.load(std::memory_order_acquire);
    }
    /// Publish `fp` unless another thread got there first; returns the
    /// published footprint either way.
    const ArcFootprint& publish(ArcFootprint&& fp) const;
    /// Drop the footprint. Mutators call it on every change, so the
    /// common empty case is one plain load (mutation is single-threaded).
    void reset() noexcept {
      if (ptr_.load(std::memory_order_relaxed) != nullptr) drop();
    }

   private:
    void drop() noexcept;

    mutable std::atomic<const ArcFootprint*> ptr_{nullptr};
  };
  FootprintMemo footprint_;
};

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_MULTICAST_HPP
