#include "coll/serve_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/tree_builder.hpp"
#include "fault/repair.hpp"
#include "obs/registry.hpp"

namespace hypercast::coll {

namespace {

/// Per-thread stage-timing sampler tick (see kSampleMask).
unsigned& sample_tick() {
  thread_local unsigned tick = 0;
  return tick;
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
  ScheduleCache::WalkTimers stages;
};

const ServeMetrics& serve_metrics() {
  static const ServeMetrics m = [] {
    obs::Registry& r = obs::default_registry();
    return ServeMetrics{&r.counter("serve.requests"),
                        &r.counter("serve.batches"),
                        &r.counter("serve.deadline_shed"),
                        {&r.histogram("serve.canonicalize_ns"),
                         &r.histogram("serve.hit_ns"),
                         &r.histogram("serve.build_ns"),
                         &r.histogram("serve.translate_ns"),
                         &r.histogram("serve.serve_ns"), "serve.build",
                         "serve.translate"}};
  }();
  return m;
}

}  // namespace

ServePipeline::ServePipeline(std::string algorithm,
                             std::shared_ptr<ScheduleCache> cache)
    : algorithm_(std::move(algorithm)),
      // Resolves (and validates) the name against the registry once;
      // throws the self-diagnosing invalid_argument for typos.
      entry_(core::find_algorithm(algorithm_)),
      cache_(std::move(cache)) {
  const auto paper = core::paper_algorithms();
  for (std::size_t i = 0; i < paper.size(); ++i) {
    if (paper[i].name == algorithm_) {
      recipe_ = &*paper[i].recipe;
      algo_ = static_cast<std::uint8_t>(i);
    }
  }
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::serve(
    const core::MulticastRequest& request) const {
  HYPERCAST_OBS_SPAN("serve");
  const bool stats = obs::stats_enabled();
  if (stats) serve_metrics().requests->inc();
  if (!translates()) return build_direct(request, stats);
  const bool sampled = stats && (sample_tick()++ & kSampleMask) == 0;
  const core::Recipe recipe = *recipe_;
  return cache_->get_translated(
      request, algo_,
      [recipe](std::vector<core::NodeId>& chain, core::MulticastSchedule& out) {
        core::TreeBuilder::local().build_relative(chain, recipe, out);
      },
      stats ? &serve_metrics().stages : nullptr, sampled);
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
  const core::CacheKey* key = nullptr;
  if (translates()) {
    key = &cache_->fault_key(request, algo_, faults);
    if (auto hit = cache_->get(*key)) return hit;
  }
  auto built = std::make_shared<core::MulticastSchedule>(
      std::move(fault::repair(base, request.destinations, faults)->schedule));
  built->finalize();
  if (key != nullptr) cache_->put(*key, built);
  return built;
}

std::shared_ptr<const core::MulticastSchedule> ServePipeline::build_direct(
    const core::MulticastRequest& request, bool stats) const {
  // Direct builds are the uncached slow path (several microseconds):
  // timing every one costs well under a percent, no sampling needed.
  const std::uint64_t t_build = stats ? obs::now_ns() : 0;
  auto out = std::make_shared<core::MulticastSchedule>(entry_.build(request));
  out->finalize();
  if (stats) serve_metrics().stages.build_ns->record(obs::now_ns() - t_build);
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

  // Owner of request i: with a cache, the shard its walk reads and
  // writes (so no two workers ever touch the same stripe, and each
  // shard sees its requests in batch order: the cache stats come out
  // the same on every run); without one, a contiguous chunk.
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

  if (translates()) {
    // Phase 1: canonicalize in parallel chunks to discover the shard
    // each request's walk probes and inserts into.
    parallel_over([&](std::size_t w) {
      for (std::size_t i = w; i < n; i += workers) {
        owner[i] = static_cast<std::uint32_t>(
            cache_->probe_shard(requests[i], algo_) % workers);
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
