#ifndef HYPERCAST_COLL_SCHEDULE_CACHE_HPP
#define HYPERCAST_COLL_SCHEDULE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cache_key.hpp"
#include "core/multicast.hpp"
#include "core/registry.hpp"
#include "hcube/types.hpp"
#include "obs/counter.hpp"

namespace hypercast::fault {
class FaultSet;
}  // namespace hypercast::fault

namespace hypercast::obs {
class Histogram;
class Registry;
}  // namespace hypercast::obs

namespace hypercast::coll {

/// The one table of cache algorithm ids (core::CacheKey::algo). Every
/// producer of cached schedules keys under its own block, so producers
/// sharing one ScheduleCache never collide. ServePipeline keys each of
/// the four paper algorithms by its position in core::paper_algorithms()
/// (0-3); every other registry entry is served pass-through and owns no
/// id.
namespace cache_algo {

/// StripedPlanner's degraded-mode repair of IST tree t (absolute,
/// fault-scoped): kIstRepair + t.
inline constexpr std::uint8_t kIstRepair = 192;
/// StripedPlanner's IST tree t (relative + materialized translations):
/// kIst + t.
inline constexpr std::uint8_t kIst = 224;

static_assert(core::kPaperAlgorithms <= kIstRepair,
              "paper ids overlap the IST-repair block");
static_assert(kIstRepair + hcube::kMaxDim <= kIst,
              "IST-repair block overlaps the IST block");
static_assert(kIst + hcube::kMaxDim <= 256, "IST block overflows 8 bits");

inline constexpr std::uint8_t ist(hcube::Dim tree) {
  return static_cast<std::uint8_t>(kIst + tree);
}
inline constexpr std::uint8_t ist_repair(hcube::Dim tree) {
  return static_cast<std::uint8_t>(kIstRepair + tree);
}

}  // namespace cache_algo

/// Sharded, striped-lock LRU cache of finalized multicast schedules,
/// keyed by core::CacheKey (dimension, resolution, algorithm, canonical
/// relative chain, and — for absolute keys — the source). A *relative*
/// entry serves every XOR-translation of its request: `(u, D)` and
/// `(v, v ^ u ^ D)` hit the same schedule, so a broadcast sweep over all
/// sources, the n translated multicasts of a tree-based all-to-all, or a
/// repeated hot pattern all pay tree construction exactly once.
/// *Absolute* entries pin one specific source: fault-repaired schedules
/// (whose repairs depend on absolute link positions; their keys also
/// carry the exact fault set, so a new fault set is simply a new key)
/// and materialized translations of relative entries (they make exact
/// repeats zero-copy).
///
/// Concurrency
///  * The shared tier is striped: the key's chain identity selects a
///    shard (shard_of), each shard owns a mutex + hash map + LRU list.
///    Writers (miss insert, eviction, clear) only contend within one
///    shard.
///  * The hot path is lock-free: each thread keeps a small direct-mapped
///    L1 of recently served entries, validated against the owning
///    shard's atomic generation tag (bumped by clear()). An L1 hit
///    touches no lock and no shared cache line beyond one atomic load.
///    Schedules are immutable once published (finalized before insert),
///    so an L1 entry that outlives its shared-tier eviction still serves
///    correct bytes; generation tags only guard deliberate invalidation.
///  * Stats counters are relaxed atomics; stats() is a racy snapshot.
///
/// Keying lives here too: get_translated is the one two-level
/// (absolute, then relative) walk every translation-invariant producer
/// serves through, and fault_key the one fault-scoped key. Both
/// canonicalize into a per-thread scratch key.
///
/// Capacity is a byte budget split evenly across shards; entries charge
/// their schedule + key footprint and the least-recently *inserted or
/// shared-tier-hit* entry is evicted first (L1 hits deliberately skip
/// the LRU touch — approximate recency in exchange for zero locking).
class ScheduleCache {
 public:
  struct Config {
    /// Number of lock stripes; rounded up to a power of two, clamped to
    /// [1, 256]. 0 = auto (hardware concurrency).
    std::size_t shards = 0;
    /// Total byte budget across all shards.
    std::size_t max_bytes = std::size_t{64} << 20;
  };

  /// Seed of every key hash (canonical keys, fault fingerprints). It
  /// fixes shard choice and so eviction order.
  static constexpr std::uint64_t kHashSeed = 0x5ca1ab1e5eedull;

  struct Stats {
    std::uint64_t hits = 0;          ///< shared-tier hits
    std::uint64_t l1_hits = 0;       ///< lock-free thread-local hits
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;     ///< entries dropped for capacity
    std::size_t entries = 0;         ///< resident entries (shared tier)
    std::size_t bytes = 0;           ///< resident bytes (shared tier)

    std::uint64_t total_hits() const { return hits + l1_hits; }
    std::uint64_t lookups() const { return total_hits() + misses; }
    double hit_rate() const {
      const std::uint64_t n = lookups();
      return n == 0 ? 0.0 : static_cast<double>(total_hits()) / n;
    }

    /// The canonical field schema: every exposition of cache stats (the
    /// serve CLI, registry gauge sources, bench artifacts, the ablation)
    /// walks this, so field names agree everywhere by construction.
    /// `visit` is called as visit(const char* name, double value).
    template <typename Visitor>
    void for_each_field(Visitor&& visit) const {
      visit("hits", static_cast<double>(hits));
      visit("l1_hits", static_cast<double>(l1_hits));
      visit("misses", static_cast<double>(misses));
      visit("evictions", static_cast<double>(evictions));
      visit("entries", static_cast<double>(entries));
      visit("bytes", static_cast<double>(bytes));
      visit("total_hits", static_cast<double>(total_hits()));
      visit("lookups", static_cast<double>(lookups()));
      visit("hit_rate", hit_rate());
    }
  };

  ScheduleCache();  ///< default Config
  explicit ScheduleCache(Config config);
  ~ScheduleCache();

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  const Config& config() const { return config_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// The shard a key maps to (exposed so batch servers can partition
  /// request groups shard-aligned and keep worker threads lock-disjoint).
  /// It hashes only the chain identity (algorithm + canonical words), so
  /// a chain's relative entry, every materialized translation and every
  /// fault-scoped repair of it share one shard: one get_translated walk
  /// touches a single shard.
  std::size_t shard_of(const core::CacheKey& key) const {
    return (((key.words_hash + key.algo) * 0x9e3779b97f4a7c15ull) >> 40) &
           shard_mask_;
  }

  /// Look the key up; nullptr on miss. The returned schedule is
  /// finalized, immutable and safe to share across threads.
  std::shared_ptr<const core::MulticastSchedule> get(const core::CacheKey& key);

  /// Insert (or overwrite) the finalized schedule for `key`. The
  /// schedule must already be finalized; the cache never mutates it.
  void put(const core::CacheKey& key,
           std::shared_ptr<const core::MulticastSchedule> schedule);

  /// Builds the relative schedule of one canonical chain into `out` (a
  /// fresh schedule rooted at node 0). `chain` is node 0 followed by the
  /// relative destinations in dimension order; the builder may permute
  /// it. It must not call back into the cache.
  using RelativeBuilder = std::function<void(std::vector<core::NodeId>& chain,
                                             core::MulticastSchedule& out)>;

  /// Stage instruments of get_translated. Build and translate are timed
  /// on every call that passes them; canonicalize, hit and total only on
  /// sampled calls. The span names label the build and translate stages
  /// in traces.
  struct WalkTimers {
    obs::Histogram* canonicalize_ns = nullptr;
    obs::Histogram* hit_ns = nullptr;
    obs::Histogram* build_ns = nullptr;
    obs::Histogram* translate_ns = nullptr;
    obs::Histogram* total_ns = nullptr;
    const char* build_span = nullptr;
    const char* translate_span = nullptr;
  };

  /// Serve a translation-invariant request under algorithm id `algo`.
  /// One canonicalization pass yields both identities: a translated
  /// request (source != 0) probes its absolute key first (the
  /// materialized translation, zero-copy on repeat), then the relative
  /// key shared by every translation of its chain. A relative miss runs
  /// `build` once and caches the result; a translated request then
  /// XOR-materializes the relative schedule and publishes it under its
  /// absolute key. Validates the request (throws std::invalid_argument).
  /// `timers` may be nullptr (untimed); `sampled` times the hit path.
  std::shared_ptr<const core::MulticastSchedule> get_translated(
      const core::MulticastRequest& request, std::uint8_t algo,
      const RelativeBuilder& build, const WalkTimers* timers = nullptr,
      bool sampled = false);

  /// The one shard get_translated probes and inserts into for
  /// `request`. Batch servers partition on it: a worker that owns a
  /// shard is then its only reader and writer, so the shard's entries,
  /// evictions and counters follow request order at any thread count.
  std::size_t probe_shard(const core::MulticastRequest& request,
                          std::uint8_t algo) const;

  /// The key of a fault-dependent entry: the absolute key of `request`
  /// under `algo`, scoped to the fault set's sorted ids and its
  /// fingerprint XOR `mix` (further identity the entry depends on, 0 for
  /// none). Refers to this thread's scratch key: valid until the thread's
  /// next fault_key, probe_shard or get_translated call.
  const core::CacheKey& fault_key(const core::MulticastRequest& request,
                                  std::uint8_t algo,
                                  const fault::FaultSet& faults,
                                  std::uint64_t mix = 0) const;

  /// Drop every entry and bump every shard's generation tag (which also
  /// kills all thread-local L1 entries).
  void clear();

  Stats stats() const;

  /// Expose this instance's stats() as a gauge source named `name` on
  /// `registry` (field names per Stats::for_each_field). The source is
  /// unregistered automatically when the cache is destroyed, or
  /// explicitly via detach_from_registry(). At most one attachment at a
  /// time; re-attaching replaces the previous one.
  void attach_to_registry(obs::Registry& registry, const std::string& name);
  void detach_from_registry();

 private:
  struct Entry {
    std::shared_ptr<const core::MulticastSchedule> schedule;
    std::size_t bytes = 0;
    std::list<const core::CacheKey*>::iterator lru;
  };

  struct KeyHash {
    std::size_t operator()(const core::CacheKey& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<core::CacheKey, Entry, KeyHash> map;
    /// Front = most recent; elements point at the map's keys (stable:
    /// unordered_map never moves nodes).
    std::list<const core::CacheKey*> lru;
    std::size_t bytes = 0;
    std::atomic<std::uint64_t> generation{1};
  };

  void evict_over_budget_locked(Shard& shard);

  Config config_;
  std::size_t shard_mask_ = 0;
  std::size_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t instance_id_ = 0;  ///< tags thread-local L1 slots

  // Instance-owned striped counters (obs::Counter shards internally, so
  // one set per cache suffices — no per-Shard copies). Owned rather than
  // registry-named because counters registered under a shared name would
  // alias across cache instances and break per-instance stats().
  obs::Counter hits_;
  obs::Counter l1_hits_;
  obs::Counter misses_;
  obs::Counter evictions_;

  obs::Registry* attached_registry_ = nullptr;
  std::string attached_name_;
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_SCHEDULE_CACHE_HPP
