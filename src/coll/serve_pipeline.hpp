#ifndef HYPERCAST_COLL_SERVE_PIPELINE_HPP
#define HYPERCAST_COLL_SERVE_PIPELINE_HPP

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/coscheduler.hpp"
#include "coll/schedule_cache.hpp"
#include "coll/striped.hpp"
#include "core/registry.hpp"
#include "fault/fault_set.hpp"

namespace hypercast::coll {

/// The concurrent schedule-serving front end: turns MulticastRequests
/// into finalized, immutably shared MulticastSchedules, consulting a
/// ScheduleCache when one is attached.
///
/// Serving strategy by algorithm:
///  * ucube / maxport / combine / wsort — translation-invariant (the
///    property tests prove build(u, D) is the XOR-relabeling of
///    build(0, u ^ D)), so the pipeline serves them through
///    ScheduleCache::get_translated: the *relative* schedule is cached
///    under the canonical relative chain (tree construction once per
///    chain shape) and each *materialized translation* under its
///    absolute identity (the XOR relabeling copy once per (source,
///    shape) pair). In steady state a hit is zero-copy: key
///    canonicalization plus a shared_ptr share, never a construction
///    and never a copy.
///  * anything else (separate, sftree, other registered entries) — the
///    output may depend on caller-supplied destination *order*, which
///    canonicalization erases, so these are served pass-through
///    (built per request, never cached).
///
/// Faults are values: serve(request, faults) and the faulted
/// serve_striped repair against the fault set they are handed, and a
/// cached repair is keyed by that set's exact content, so a new fault
/// set is a new key and nothing is ever invalidated.
///
/// Relative trees build through core::TreeBuilder::local(), so a
/// pipeline shared by many worker threads reaches a zero-allocation
/// steady state while staying bit-identical to uncached construction at
/// any thread count; uncached requests build through the registry entry.
class ServePipeline {
 public:
  /// `cache` may be nullptr: the pipeline then serves every request by
  /// direct construction (the --cache=off mode everywhere).
  ServePipeline(std::string algorithm, std::shared_ptr<ScheduleCache> cache);

  const std::string& algorithm() const { return algorithm_; }
  const std::shared_ptr<ScheduleCache>& cache() const { return cache_; }
  bool cached() const { return cache_ != nullptr; }

  /// Serve one request. The returned schedule is finalized and safe to
  /// share read-only across threads. Throws std::invalid_argument on
  /// malformed requests (same contract as MulticastRequest::validate).
  std::shared_ptr<const core::MulticastSchedule> serve(
      const core::MulticastRequest& request) const;

  /// Serve one request on a faulted cube: the tree serve(request) would
  /// return when no unicast of it is blocked by `faults`, otherwise its
  /// greedy repair (fault::repair), cached per (request, fault set) for
  /// the translation-invariant algorithms. Throws
  /// fault::UnrepairableFault when a destination is unreachable.
  std::shared_ptr<const core::MulticastSchedule> serve(
      const core::MulticastRequest& request,
      const fault::FaultSet& faults) const;

  /// Batch-serving policy. The default (1 thread, no deadline) serves
  /// the whole batch sequentially.
  struct BatchPolicy {
    int threads = 1;
    /// Absolute obs::now_ns() deadline; 0 = none. A request whose
    /// serving has not *started* by the deadline is shed: its result
    /// slot stays nullptr and the serve.deadline_shed counter bumps.
    /// This is the hook a queue-backed server uses to stop burning CPU
    /// on requests whose caller has already given up (the response
    /// would arrive past its latency SLO anyway) — load-shedding at the
    /// latest possible moment, after queueing but before construction.
    std::uint64_t deadline_ns = 0;
    /// Optional per-request absolute deadlines (same clock; 0 = none),
    /// parallel to the request span. A batch coalesced from a queue
    /// mixes admission times, so one collapsed batch deadline would
    /// serve the earliest-admitted requests past their own SLO; each
    /// slot i is shed against min(deadline_ns, deadlines_ns[i]) of the
    /// nonzero values instead. An empty span means batch-wide only.
    std::span<const std::uint64_t> deadlines_ns{};
  };

  /// Serve a batch, results in request order. With `policy.threads` > 1
  /// the batch is partitioned by cache shard — every shard's requests
  /// are handled by exactly one worker, so workers never contend on a
  /// stripe and hits resolve lock-free (uncached pipelines fall back to
  /// contiguous chunks). Without a deadline, output is bit-identical to
  /// serving the batch sequentially, at any thread count; with one,
  /// served slots are still bit-identical but trailing requests may be
  /// shed (nullptr).
  std::vector<std::shared_ptr<const core::MulticastSchedule>> serve_batch(
      std::span<const core::MulticastRequest> requests,
      const BatchPolicy& policy) const;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> serve_batch(
      std::span<const core::MulticastRequest> requests, int threads = 1) const {
    return serve_batch(requests, BatchPolicy{threads, 0});
  }

  /// A served batch plus its contention-bounded launch plan. Plan wave
  /// members index into `schedules`; shed (nullptr) slots appear in no
  /// wave.
  struct CoschedBatch {
    std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
    CoschedPlan plan;
  };

  /// Serve one request as a striped collective: payloads at or above
  /// options.threshold_bytes on cubes of dim >= 2 split across the n
  /// arc-disjoint IST trees (each tree cached per-tree through this
  /// pipeline's cache, same two-level scheme as serve()); smaller
  /// payloads fall back to the latency-optimal single-tree serve()
  /// (plan.striped == false, one tree carrying the whole payload).
  StripedPlan serve_striped(const core::MulticastRequest& request,
                            std::size_t payload_bytes,
                            const StripeOptions& options = {}) const;

  /// Degraded-mode serve_striped: striped plans swap the most-affected
  /// tree onto the parity stripe and detour-repair the rest (see
  /// StripedPlanner); the single-tree fallback is served as by
  /// serve(request, faults). Throws fault::UnrepairableFault when a
  /// destination is unreachable.
  StripedPlan serve_striped(const core::MulticastRequest& request,
                            std::size_t payload_bytes,
                            const StripeOptions& options,
                            const fault::FaultSet& faults) const;

  /// serve_batch, then co-schedule the served slots into waves under
  /// `cosched` (see coll::CoScheduler). The schedules are byte-identical
  /// to plain serve_batch output and the plan is a pure function of
  /// them, so the result is deterministic at any policy.threads.
  CoschedBatch serve_batch_cosched(
      std::span<const core::MulticastRequest> requests,
      const BatchPolicy& policy, const CoschedPolicy& cosched) const;

 private:
  /// Whether serve() goes through the cache (a cache is attached and the
  /// algorithm is one of the translation-invariant paper algorithms).
  bool translates() const { return cache_ != nullptr && recipe_ != nullptr; }

  std::shared_ptr<const core::MulticastSchedule> build_direct(
      const core::MulticastRequest& request, bool stats) const;

  /// The repair of `base` (this pipeline's tree for `request`) against
  /// `faults`, through the cache when the algorithm is cacheable.
  std::shared_ptr<const core::MulticastSchedule> repaired(
      const core::MulticastRequest& request,
      const core::MulticastSchedule& base,
      const fault::FaultSet& faults) const;

  /// Both serve_striped overloads; `faults` may be nullptr.
  StripedPlan striped(const core::MulticastRequest& request,
                      std::size_t payload_bytes, const StripeOptions& options,
                      const fault::FaultSet* faults) const;

  std::string algorithm_;
  /// find_algorithm(algorithm_), resolved (and validated) once at
  /// construction: every uncached build runs it.
  core::AlgorithmEntry entry_;
  /// Set iff the algorithm is one of core::paper_algorithms(): its
  /// recipe builds the relative trees, and its position there is its
  /// cache id (cache_algo).
  const core::Recipe* recipe_ = nullptr;
  std::uint8_t algo_ = 0;
  std::shared_ptr<ScheduleCache> cache_;
};

}  // namespace hypercast::coll

#endif  // HYPERCAST_COLL_SERVE_PIPELINE_HPP
