// des_contended: in-process 10-cube batches of concurrent multicasts from
// workload::multi_tenant_mix, hot_spot_mix and bursty_arrivals, 4 KiB
// messages. One op: serve_batch_cosched -> CoScheduler::to_jobs ->
// simulate_collectives_sharded on 2 replay threads. The only workload
// that runs the DES and the co-scheduler; contended batches drive the
// waiter lists and blocking paths that contention-free single trees never
// touch. Its simulated delays are the paper's Fig 13/14 quantities.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "coll/coscheduler.hpp"
#include "coll/serve_pipeline.hpp"
#include "common.hpp"
#include "obs/obs.hpp"
#include "sim/shard.hpp"
#include "workload/concurrent.hpp"

namespace perfbench {

namespace coll = hypercast::coll;
namespace core = hypercast::core;
namespace hcube = hypercast::hcube;
namespace sim = hypercast::sim;
namespace workload = hypercast::workload;

namespace {

constexpr hcube::Dim kDim = 10;
constexpr std::size_t kBatchesPerMix = 32;
constexpr unsigned kReplayThreads = 2;
constexpr std::size_t kShardChecks = 6;  // batches re-run unsharded

using Batch = std::vector<core::MulticastRequest>;

/// The batch pool the op loop cycles through: a pure function of seed.
/// The three mixes and their sizes are those bench/ablation_coschedule.cpp
/// studies, unscaled on the 10-cube.
std::vector<Batch> make_pool(std::uint64_t seed) {
  const hcube::Topology topo(kDim);
  std::vector<Batch> pool;
  for (std::uint64_t mix = 0; mix < 3; ++mix) {
    for (std::uint64_t b = 0; b < kBatchesPerMix; ++b) {
      workload::Rng rng(workload::derive_seed(seed, 0xde5 + mix, b));
      std::vector<workload::ConcurrentRequest> requests;
      if (mix == 0) {
        requests = workload::multi_tenant_mix(topo, 4, 6, 24, rng);
      } else if (mix == 1) {
        requests = workload::hot_spot_mix(topo, 24, 16, 8, rng);
      } else {
        requests = workload::bursty_arrivals(topo, 3, 8, 16, 1'000'000, rng);
      }
      Batch batch;
      for (auto& r : requests) {
        batch.push_back({topo, r.source, std::move(r.destinations)});
      }
      pool.push_back(std::move(batch));
    }
  }
  return pool;
}

/// What one op produced, kept for the checks and the traced metrics.
struct OpOut {
  std::vector<std::shared_ptr<const core::MulticastSchedule>> schedules;
  coll::CoschedPlan plan;
  std::vector<sim::CollectiveJob> jobs;
  std::vector<std::size_t> job_request;  ///< batch index of each job
  sim::MultiSimResult result;
};

/// Every job reaches every destination of its request.
bool delivered(const Batch& batch, const OpOut& o) {
  if (o.result.per_job.size() != batch.size()) return false;
  for (std::size_t i = 0; i < o.jobs.size(); ++i) {
    for (const hcube::NodeId d : batch[o.job_request[i]].destinations) {
      if (!o.result.per_job[i].delivery.contains(d)) return false;
    }
  }
  return true;
}

class Runner {
 public:
  Runner(const std::vector<Batch>& pool, Spans& spans)
      : pool_(pool),
        spans_(spans),
        pipeline_("wsort", std::make_shared<coll::ScheduleCache>()) {}

  const coll::ScheduleCache& cache() const { return *pipeline_.cache(); }

  /// One op on pool batch `b`. Untraced, it is the serving call chain;
  /// traced, the same work split into its public calls under spans.
  bool op(std::size_t b, OpOut& o) {
    const Batch& batch = pool_[b];
    const coll::ServePipeline::BatchPolicy policy{1, 0};
    const coll::CoschedPolicy cosched;
    Spans::Scope op(spans_, "op");
    if (!spans_.enabled()) {
      auto served = pipeline_.serve_batch_cosched(batch, policy, cosched);
      o.schedules = std::move(served.schedules);
      o.plan = std::move(served.plan);
    } else {
      {
        Spans::Scope s(spans_, "coll.serve_batch");
        o.schedules = pipeline_.serve_batch(batch, policy);
      }
      Spans::Scope s(spans_, "coll.cosched_plan");
      coll::CoScheduler scheduler(cosched);
      o.plan = scheduler.plan(o.schedules);
    }
    std::vector<const core::MulticastSchedule*> ptrs;
    for (const auto& s : o.schedules) ptrs.push_back(s.get());
    {
      Spans::Scope s(spans_, "coll.to_jobs");
      o.jobs = coll::CoScheduler::to_jobs(o.plan, ptrs);
    }
    o.job_request.clear();
    for (const auto& wave : o.plan.waves) {
      for (const std::size_t m : wave.members) o.job_request.push_back(m);
    }
    if (!spans_.enabled()) {
      o.result = sim::simulate_collectives_sharded(o.jobs, sim::SimConfig{},
                                                   kReplayThreads);
    } else {
      // The sharded replay's own steps, one public call each: partition,
      // then simulate_collectives per shard (on this thread).
      sim::ShardPlan shards;
      {
        Spans::Scope s(spans_, "sim.partition");
        shards = sim::partition_collective_jobs(o.jobs);
      }
      Spans::Scope s(spans_, "sim.simulate_collectives");
      o.result = sim::MultiSimResult{};
      o.result.per_job.resize(o.jobs.size());
      o.result.shards = shards.shards.size();
      std::vector<sim::CollectiveJob> subset;
      for (const auto& members : shards.shards) {
        subset.clear();
        for (const std::size_t i : members) subset.push_back(o.jobs[i]);
        sim::MultiSimResult r =
            sim::simulate_collectives(subset, sim::SimConfig{});
        for (std::size_t i = 0; i < members.size(); ++i) {
          o.result.per_job[members[i]] = std::move(r.per_job[i]);
        }
        o.result.stats.messages += r.stats.messages;
        o.result.stats.blocked_acquisitions += r.stats.blocked_acquisitions;
        o.result.stats.total_blocked_ns += r.stats.total_blocked_ns;
        o.result.stats.events += r.stats.events;
      }
    }
    Spans::Scope s(spans_, "bench.verify");
    return delivered(batch, o);
  }

 private:
  const std::vector<Batch>& pool_;
  Spans& spans_;
  coll::ServePipeline pipeline_;
};

/// The deterministic pool-wide facts: simulated delays and exact event
/// and blocking counts per op, from one pass over the pool.
struct PoolFacts {
  SimTally tally;
  double events = 0, blocked_acq = 0, blocked_ns = 0;
  std::size_t ops = 0;
  std::size_t multi_shard = 0;  ///< batches the partition split
};

PoolFacts warm(Runner& runner, const std::vector<Batch>& pool) {
  PoolFacts f;
  OpOut o;
  for (std::size_t b = 0; b < pool.size(); ++b) {
    if (!runner.op(b, o)) {
      throw std::runtime_error("des_contended: warm-up op failed");
    }
    f.tally.add_launch(o.result, o.jobs);
    f.events += static_cast<double>(o.result.stats.events);
    f.blocked_acq += static_cast<double>(o.result.stats.blocked_acquisitions);
    f.blocked_ns += static_cast<double>(o.result.stats.total_blocked_ns);
    if (o.result.shards > 1) ++f.multi_shard;
    ++f.ops;
  }
  return f;
}

void note_pool(Result& out, const PoolFacts& f) {
  const auto ops = static_cast<double>(std::max<std::size_t>(1, f.ops));
  char line[200];
  std::snprintf(line, sizeof(line),
                "pool: %zu batches, %zu split into more than one shard; "
                "%.1f blocked acquisitions and %.0f events per batch",
                f.ops, f.multi_shard, f.blocked_acq / ops, f.events / ops);
  out.note(line);
}

/// Plan facts of the ops a loop ran, for the traced metrics.
struct PlanTally {
  double ops = 0, waves = 0, fallback = 0, multicasts = 0, shards = 0,
         events = 0;
  std::uint32_t peak_overlap = 0;

  void add(const OpOut& o) {
    ops += 1;
    waves += static_cast<double>(o.plan.waves.size());
    fallback += static_cast<double>(o.plan.oblivious_fallback);
    multicasts += static_cast<double>(o.jobs.size());
    shards += static_cast<double>(o.result.shards);
    events += static_cast<double>(o.result.stats.events);
    peak_overlap = std::max(peak_overlap, o.plan.peak_overlap);
  }
};

/// The op loop over the pool, cycling from batch 0.
Timed pool_loop(Runner& runner, const std::vector<Batch>& pool,
                std::uint64_t duration_ns, PlanTally& tally) {
  OpOut o;
  std::size_t k = 0;
  return timed_loop(duration_ns, kReplayThreads, [&] {
    const bool ok = runner.op(k++ % pool.size(), o);
    tally.add(o);
    return ok;
  });
}

/// Sharded replay must equal plain simulate_collectives on a sample.
std::uint64_t check_sharding(Runner& runner, const std::vector<Batch>& pool) {
  std::uint64_t bad = 0;
  OpOut o;
  for (std::size_t b = 0; b < std::min(kShardChecks, pool.size()); ++b) {
    runner.op(b * pool.size() / kShardChecks, o);
    const sim::MultiSimResult plain =
        sim::simulate_collectives(o.jobs, sim::SimConfig{});
    bool same = plain.per_job.size() == o.result.per_job.size() &&
                plain.makespan() == o.result.makespan() &&
                plain.stats.blocked_acquisitions ==
                    o.result.stats.blocked_acquisitions &&
                plain.stats.total_blocked_ns == o.result.stats.total_blocked_ns;
    for (std::size_t i = 0; same && i < plain.per_job.size(); ++i) {
      same = plain.per_job[i].delivery == o.result.per_job[i].delivery;
    }
    if (!same) ++bad;
  }
  return bad;
}

}  // namespace

Result run_des(const Args& args) {
  Result out;
  const std::vector<Batch> pool = make_pool(args.seed);
  Spans off(false);
  if (!args.trace) {
    std::unique_ptr<Runner> runner;
    PoolFacts facts;
    set_up_repeatedly(out, runner, kReplayThreads, [&] {
      auto r = std::make_unique<Runner>(pool, off);
      facts = warm(*r, pool);
      return r;
    });
    PlanTally plans;
    const Timed t = pool_loop(*runner, pool,
                              static_cast<std::uint64_t>(args.seconds * 1e9),
                              plans);
    out.attempted = t.attempted;
    out.failed = t.failed;
    report_timed(out, t, "replayed batch op");
    t.used.report(out, t.attempted - t.failed, "timed loop");
    const std::uint64_t bad = check_sharding(*runner, pool);
    out.failed += bad;
    out.note("sharded vs plain replay: " + std::to_string(bad) + " of " +
             std::to_string(kShardChecks) + " sampled batches differ");
    facts.tally.report(out);
    note_pool(out, facts);
    out.set("peak_rss_mib", peak_rss_mib());
    return out;
  }

  Runner plain(pool, off);
  const PoolFacts facts = warm(plain, pool);
  const auto half = static_cast<std::uint64_t>(args.seconds * 0.5e9);
  PlanTally ignored;
  const Timed untraced = pool_loop(plain, pool, half, ignored);

  Spans on(true);
  Runner spanned(pool, on);
  warm(spanned, pool);
  on.clear();
  const hypercast::obs::FlagsGuard flags;
  hypercast::obs::set_stats_enabled(true);
  const auto before = spanned.cache().stats();
  PlanTally plans;
  const Timed traced = pool_loop(spanned, pool, half, plans);
  set_cache_metrics(out, before, spanned.cache().stats());
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  set_trace_overhead(out, untraced.ops_per_s, traced.ops_per_s);
  out.set("wall.ops_per_s", untraced.wall_ops_per_s);
  report_timed(out, untraced, "replayed batch op, untraced half");

  const double ops = std::max(1.0, plans.ops);
  const double pool_ops = static_cast<double>(facts.ops);
  out.set("cosched.plan_us_mean", on.mean_ns("coll.cosched_plan") / 1e3);
  out.set("cosched.waves_mean", plans.waves / ops);
  out.set("cosched.peak_overlap_max", plans.peak_overlap);
  out.set("cosched.fallback_frac",
          plans.multicasts > 0 ? plans.fallback / plans.multicasts : 0.0);
  out.set("coll.serve_ns_mean",
          on.total_ns("coll.serve_batch") / std::max(1.0, plans.multicasts));
  out.set("sim.replay_us_mean",
          on.mean_ns("sim.simulate_collectives") / 1e3);
  out.set("sim.partition_us_mean", on.mean_ns("sim.partition") / 1e3);
  out.set("sim.shards_mean", plans.shards / ops);
  out.set("sim.events_per_op", facts.events / pool_ops);
  out.set("sim.ns_per_event", on.total_ns("sim.simulate_collectives") /
                                  std::max(1.0, plans.events));
  out.set("sim.blocked_acq_per_op", facts.blocked_acq / pool_ops);
  out.set("sim.blocked_us_per_op", facts.blocked_ns / pool_ops / 1e3);
  out.set("des_contended.unattributed_frac", on.unattributed_frac());
  note_pool(out, facts);
  on.note_summary(out);
  if (!args.trace_out.empty()) on.write_chrome(args.trace_out);
  return out;
}

}  // namespace perfbench
