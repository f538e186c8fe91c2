#include "coll/serve_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/tree_builder.hpp"
#include "core/wsort.hpp"
#include "fault/repair.hpp"
#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

/// Fixed algorithm ids for the translation-invariant built-ins (the
/// only cached kinds), so pipelines sharing one cache never collide.
constexpr std::uint8_t kUcubeId = 0;
constexpr std::uint8_t kMaxportId = 1;
constexpr std::uint8_t kCombineId = 2;
constexpr std::uint8_t kWsortId = 3;

/// Per-thread serving scratch: the canonical key, the relative chain
/// reconstruction buffer, the tree builder and the wsort permutation
/// scratch. One instance per thread serves every pipeline (builders are
/// stateless between builds), which is what keeps a threaded batch at
/// the zero-allocation steady state.
struct ServeTls {
  core::CacheKey key;
  std::vector<core::NodeId> chain;
  core::TreeBuilder builder;
  core::WeightedSortScratch wsort_scratch;
  unsigned sample_tick = 0;  ///< stage-timing sampler (see kSampleMask)
};

ServeTls& serve_tls() {
  thread_local ServeTls tls;
  return tls;
}

/// Stage-timing sample rate: a cached serve is ~1.2us and a clock read
/// ~30ns on this class of machine, so timing every request would cost
/// ~7% — outside the overhead budget. Counters bump on every request
/// (one striped relaxed add, ~6ns); the per-stage histograms sample one
/// request in 16, which keeps the percentile estimates stable for any
/// steady workload while holding the enabled-stats overhead near 1%.
/// Miss-path stages (build, translate) are timed unconditionally: they
/// are rare and three orders of magnitude longer than a clock read.
constexpr unsigned kSampleMask = 15;

/// Instrument handles resolved once against the default registry; the
/// hot path dereferences pointers and never touches the registry lock.
struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* batches;
  obs::Counter* deadline_shed;
  obs::Histogram* serve_ns;
  obs::Histogram* canonicalize_ns;
  obs::Histogram* hit_ns;
  obs::Histogram* build_ns;
  obs::Histogram* translate_ns;
};

const ServeMetrics& serve_metrics() {
  static const ServeMetrics m = [] {
    obs::Registry& r = obs::default_registry();
    return ServeMetrics{&r.counter("serve.requests"),
                        &r.counter("serve.batches"),
                        &r.counter("serve.deadline_shed"),
                        &r.histogram("serve.serve_ns"),
                        &r.histogram("serve.canonicalize_ns"),
                        &r.histogram("serve.hit_ns"),
                        &r.histogram("serve.build_ns"),
                        &r.histogram("serve.translate_ns")};
  }();
  return m;
}

}  // namespace

ServePipeline::ServePipeline(std::string algorithm,
                             std::shared_ptr<ScheduleCache> cache)
    : algorithm_(std::move(algorithm)), cache_(std::move(cache)) {
  if (algorithm_ == "ucube") {
    kind_ = Kind::Chain;
    rule_ = core::NextRule::Center;
    algo_id_ = kUcubeId;
  } else if (algorithm_ == "maxport") {
    kind_ = Kind::Chain;
    rule_ = core::NextRule::HighDim;
    algo_id_ = kMaxportId;
  } else if (algorithm_ == "combine") {
    kind_ = Kind::Chain;
    rule_ = core::NextRule::MaxOfBoth;
    algo_id_ = kCombineId;
  } else if (algorithm_ == "wsort") {
    kind_ = Kind::Wsort;
    algo_id_ = kWsortId;
  } else {
    // Resolves (and validates) the name against the registry once;
    // throws the self-diagnosing invalid_argument for typos.
    kind_ = Kind::Entry;
    entry_ = core::find_algorithm(algorithm_);
  }
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve(
    const core::MulticastRequest& request) const {
  HYPERCAST_OBS_SPAN("serve");
  if (cache_ == nullptr || kind_ == Kind::Entry) return build_direct(request);
  return serve_relative(request);
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve(
    const core::MulticastRequest& request,
    const fault::FaultSet& faults) const {
  auto tree = serve(request);
  if (fault::blocked_unicasts(*tree, faults) == 0) return tree;
  return repaired(request, *tree, faults);
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::repaired(
    const core::MulticastRequest& request,
    const core::MulticastSchedule& base,
    const fault::FaultSet& faults) const {
  // A repair depends on the absolute fault positions: it caches under
  // the absolute key of this pipeline's algorithm, scoped to the exact
  // fault set. Registry entries stay pass-through (their trees may
  // depend on destination order), so their repairs do too.
  const bool cacheable = cache_ != nullptr && kind_ != Kind::Entry;
  ServeTls& tls = serve_tls();
  if (cacheable) {
    const std::uint64_t seed = cache_->config().hash_seed;
    core::canonical_key_into(request.topo, request.source,
                             request.destinations, algo_id_,
                             /*absolute=*/true, seed, tls.key);
    core::scope_to_faults(tls.key, faults.ids(), faults.fingerprint(seed));
    if (auto hit = cache_->get(tls.key)) return hit;
  }
  auto built = std::make_shared<core::MulticastSchedule>(
      std::move(fault::repair(base, request.destinations, faults)->schedule));
  built->finalize();
  if (cacheable) cache_->put(tls.key, built);
  return built;
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve_relative(
    const core::MulticastRequest& request) const {
  ServeTls& tls = serve_tls();
  const core::NodeId mask = request.source;
  const bool stats = obs::stats_enabled();
  bool sampled = false;
  std::uint64_t t_start = 0;
  if (stats) {
    serve_metrics().requests->inc();
    sampled = (tls.sample_tick++ & kSampleMask) == 0;
    if (sampled) t_start = obs::now_ns();
  }
  // One canonicalization pass yields both identities: the absolute one
  // (this exact translation, zero-copy on repeat) and — via a cheap
  // rekey() of the header — the relative one (shared by every
  // translation of the chain).
  core::canonical_key_into(request.topo, request.source, request.destinations,
                           algo_id_, /*absolute=*/mask != 0,
                           cache_->config().hash_seed, tls.key);
  std::uint64_t t_probe = 0;
  if (sampled) {
    t_probe = obs::now_ns();
    serve_metrics().canonicalize_ns->record(t_probe - t_start);
  }
  if (mask != 0) {
    if (auto hit = cache_->get(tls.key)) {
      if (sampled) {
        const std::uint64_t t_end = obs::now_ns();
        serve_metrics().hit_ns->record(t_end - t_probe);
        serve_metrics().serve_ns->record(t_end - t_start);
      }
      return hit;
    }
    core::rekey(tls.key, /*absolute=*/false, 0);
  }
  auto rel = cache_->get(tls.key);
  if (rel == nullptr) {
    HYPERCAST_OBS_SPAN("serve.build");
    const std::uint64_t t_build = stats ? obs::now_ns() : 0;
    auto built = build_relative(request.topo, tls.key);
    cache_->put(tls.key, built);
    if (stats) serve_metrics().build_ns->record(obs::now_ns() - t_build);
    rel = std::move(built);
  } else if (sampled && mask == 0) {
    serve_metrics().hit_ns->record(obs::now_ns() - t_probe);
  }
  if (mask == 0) {
    if (sampled) serve_metrics().serve_ns->record(obs::now_ns() - t_start);
    return rel;  // zero-copy: the relative origin
  }
  HYPERCAST_OBS_SPAN("serve.translate");
  const std::uint64_t t_translate = stats ? obs::now_ns() : 0;
  auto out = std::make_shared<core::MulticastSchedule>(request.topo,
                                                       request.source);
  out->assign_translated(*rel, mask);
  out->finalize();
  // Publish the materialized translation under its absolute identity so
  // the next identical request shares it without copying.
  core::rekey(tls.key, /*absolute=*/true, mask);
  cache_->put(tls.key, out);
  if (stats) {
    const std::uint64_t t_end = obs::now_ns();
    serve_metrics().translate_ns->record(t_end - t_translate);
    if (sampled) serve_metrics().serve_ns->record(t_end - t_start);
  }
  return out;
}

std::shared_ptr<core::MulticastSchedule> ServePipeline::build_relative(
    const core::Topology& topo, const core::CacheKey& key) const {
  ServeTls& tls = serve_tls();
  core::relative_chain_from_key(topo, key, tls.chain);
  auto out = std::make_shared<core::MulticastSchedule>(topo, 0);
  core::NextRule rule = rule_;
  if (kind_ == Kind::Wsort) {
    core::weighted_sort(topo, tls.chain, tls.wsort_scratch);
    rule = core::NextRule::HighDim;
  }
  tls.builder.build_chain_into(topo, tls.chain, rule, *out);
  out->finalize();
  return out;
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::build_direct(
    const core::MulticastRequest& request) const {
  ServeTls& tls = serve_tls();
  const bool stats = obs::stats_enabled();
  std::uint64_t t_build = 0;
  if (stats) {
    serve_metrics().requests->inc();
    // Direct builds are the uncached slow path (several microseconds):
    // timing every one costs well under a percent, no sampling needed.
    t_build = obs::now_ns();
  }
  const auto record_build = [&](std::uint64_t t0) {
    if (stats) serve_metrics().build_ns->record(obs::now_ns() - t0);
  };
  switch (kind_) {
    case Kind::Chain: {
      auto out = std::make_shared<core::MulticastSchedule>(request.topo,
                                                           request.source);
      tls.builder.build_into(request, rule_, *out);
      out->finalize();
      record_build(t_build);
      return out;
    }
    case Kind::Wsort: {
      auto out = std::make_shared<core::MulticastSchedule>(request.topo,
                                                           request.source);
      tls.builder.build_wsort_into(request, *out);
      out->finalize();
      record_build(t_build);
      return out;
    }
    case Kind::Entry:
      break;
  }
  auto out = std::make_shared<core::MulticastSchedule>(entry_.build(request));
  out->finalize();
  record_build(t_build);
  return out;
}

std::vector<std::shared_ptr<const core::MulticastSchedule>>
ServePipeline::serve_batch(std::span<const core::MulticastRequest> requests,
                           const BatchPolicy& policy) const {
  HYPERCAST_OBS_SPAN("serve.batch");
  if (obs::stats_enabled()) serve_metrics().batches->inc();
  std::vector<std::shared_ptr<const core::MulticastSchedule>> out(
      requests.size());
  const std::size_t n = requests.size();
  // Deadline check, evaluated immediately before each request's serve
  // starts. Sampling the clock per request costs ~30ns against serves
  // of >=1.2us, so no batching of the check is needed. Slot i is held
  // to the tighter of the batch-wide deadline and its own entry in
  // policy.deadlines_ns — a coalesced batch mixes admission times, and
  // the oldest request must not inherit the newest one's slack.
  const std::uint64_t batch_deadline = policy.deadline_ns;
  const std::span<const std::uint64_t> per_request = policy.deadlines_ns;
  const auto expired = [batch_deadline, per_request](std::size_t i) {
    std::uint64_t deadline = batch_deadline;
    if (i < per_request.size() && per_request[i] != 0) {
      deadline = deadline == 0 ? per_request[i]
                               : std::min(deadline, per_request[i]);
    }
    if (deadline == 0 || obs::now_ns() <= deadline) return false;
    if (obs::stats_enabled()) serve_metrics().deadline_shed->inc();
    return true;
  };
  std::size_t workers =
      policy.threads < 1 ? 1 : static_cast<std::size_t>(policy.threads);
  workers = std::min(workers, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      if (expired(i)) continue;
      out[i] = serve(requests[i]);
    }
    return out;
  }

  // Owner of request i: with a cache, its key's shard (so no two workers
  // ever touch the same stripe — hits resolve without lock contention);
  // without one, a contiguous chunk.
  const bool shard_partition = cache_ != nullptr && kind_ != Kind::Entry;
  std::vector<std::uint32_t> owner(n, 0);
  std::mutex error_mu;
  std::exception_ptr error;

  const auto guard = [&](auto&& fn) {
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  const auto parallel_over = [&](auto&& body) {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] { guard([&] { body(w); }); });
    }
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
  };

  if (shard_partition) {
    // Phase 1: canonicalize in parallel chunks to discover each
    // request's shard (the keys are recomputed thread-locally during
    // serving; what matters here is only the partition).
    parallel_over([&](std::size_t w) {
      core::CacheKey key;
      for (std::size_t i = w; i < n; i += workers) {
        // Partition by the identity serve() probes (and inserts) first:
        // the absolute one for translated requests, the relative one at
        // the relative origin. The fallback probe of a cold relative
        // entry may touch a foreign stripe, but that is a once-per-chain
        // event, not the steady state.
        const bool absolute = requests[i].source != 0;
        core::canonical_key_into(requests[i].topo, requests[i].source,
                                 requests[i].destinations, algo_id_, absolute,
                                 cache_->config().hash_seed, key);
        owner[i] = static_cast<std::uint32_t>(cache_->shard_of(key) %
                                              workers);
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      owner[i] = static_cast<std::uint32_t>(i % workers);
    }
  }

  // Phase 2: every worker serves exactly its shard group, writing
  // disjoint result slots.
  parallel_over([&](std::size_t w) {
    for (std::size_t i = 0; i < n; ++i) {
      if (owner[i] != w) continue;
      if (expired(i)) continue;
      out[i] = serve(requests[i]);
    }
  });
  return out;
}

StripedPlan ServePipeline::serve_striped(
    const core::MulticastRequest& request, std::size_t payload_bytes,
    const StripeOptions& options) const {
  return striped(request, payload_bytes, options, nullptr);
}

StripedPlan ServePipeline::serve_striped(
    const core::MulticastRequest& request, std::size_t payload_bytes,
    const StripeOptions& options, const fault::FaultSet& faults) const {
  return striped(request, payload_bytes, options, &faults);
}

StripedPlan ServePipeline::striped(const core::MulticastRequest& request,
                                   std::size_t payload_bytes,
                                   const StripeOptions& options,
                                   const fault::FaultSet* faults) const {
  if (payload_bytes < options.threshold_bytes || request.topo.dim() < 2) {
    StripedPlan plan;
    plan.payload_bytes = payload_bytes;
    plan.stripe_bytes = payload_bytes;
    auto tree = serve(request);
    if (faults != nullptr && fault::blocked_unicasts(*tree, *faults) != 0) {
      tree = repaired(request, *tree, *faults);
      plan.repaired_trees = 1;
    }
    plan.trees.push_back(std::move(tree));
    return plan;
  }
  const StripedPlanner planner(options, cache_);
  return faults != nullptr ? planner.plan(request, payload_bytes, *faults)
                           : planner.plan(request, payload_bytes);
}

ServePipeline::CoschedBatch ServePipeline::serve_batch_cosched(
    std::span<const core::MulticastRequest> requests,
    const BatchPolicy& policy, const CoschedPolicy& cosched) const {
  CoschedBatch out;
  out.schedules = serve_batch(requests, policy);
  // The plan is a pure function of the served schedules (null slots are
  // skipped), so co-scheduled serving inherits serve_batch's
  // thread-count determinism.
  CoScheduler scheduler(cosched);
  out.plan = scheduler.plan(out.schedules);
  return out;
}

}  // namespace hypercast::coll
