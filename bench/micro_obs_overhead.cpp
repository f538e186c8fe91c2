// Microbenchmark: what the observability layer costs. Two claims are
// measured, matching the contract documented in DESIGN.md:
//
//  1. Primitive costs — a striped counter bump, a histogram record, an
//     *untraced* span guard (the steady-state cost of every
//     HYPERCAST_OBS_SPAN site: one relaxed flag load) and a raw
//     obs::now_ns() clock read. Under -DHYPERCAST_OBS_DISABLE the span
//     guard compiles to nothing and its rate collapses to the empty
//     loop, which is the no-op proof for the disabled build.
//
//  2. End-to-end serving overhead — the micro_schedule_cache cached
//     steady-state workload (8-cube, 4 shapes of 224 destinations,
//     translated sources) served with stats collection off and on,
//     interleaved best-of-5 like every other serving rate. The
//     "stats_overhead_pct" metric is the acceptance bound: enabled
//     stats must stay within a few percent of the disabled rate.
//
// Flags are saved and restored, so running this benchmark inside a
// --stats bench pass does not disturb later benchmarks.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "harness/bench.hpp"
#include "obs/counter.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

constexpr int kPasses = 5;

template <typename Fn>
bench::Rate best_rate(double min_seconds, Fn&& fn) {
  bench::Rate best;
  for (int pass = 0; pass < kPasses; ++pass) {
    const bench::Rate rate = bench::measure_rate(min_seconds, fn);
    if (rate.per_second() > best.per_second()) best = rate;
  }
  return best;
}

/// Same translated-shape stream as micro_schedule_cache (the cached
/// serving steady state the overhead bound is defined against).
std::vector<core::MulticastRequest> translated_stream(
    const hcube::Topology& topo, std::size_t shapes, std::size_t m,
    std::size_t requests, workload::Rng& rng) {
  std::vector<std::vector<hcube::NodeId>> chains;
  for (std::size_t s = 0; s < shapes; ++s) {
    chains.push_back(workload::random_destinations(topo, 0, m, rng));
  }
  std::vector<core::MulticastRequest> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    const auto& chain = chains[i % chains.size()];
    const auto source = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    std::vector<hcube::NodeId> dests;
    dests.reserve(chain.size());
    for (const hcube::NodeId d : chain) {
      const auto t = static_cast<hcube::NodeId>(d ^ source);
      if (t != source) dests.push_back(t);
    }
    stream.push_back(core::MulticastRequest{topo, source, std::move(dests)});
  }
  return stream;
}

void run(const bench::Context& ctx, bench::Report& report) {
  obs::FlagsGuard flags;  // restore the caller's stats/tracing state

  report.metric("obs_compiled", obs::kCompiled ? 1.0 : 0.0);

  // ---- primitive costs (batched so the loop overhead amortizes) ----
  constexpr std::uint64_t kBatch = 1024;
  obs::set_stats_enabled(true);
  obs::set_tracing_enabled(false);

  obs::Counter counter;
  const bench::Rate counter_rate = best_rate(ctx.min_time(0.05), [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) counter.inc();
  });
  report.metric("counter_inc_per_sec",
                counter_rate.per_second() * static_cast<double>(kBatch));

  obs::Histogram hist;
  std::uint64_t value = 1;
  const bench::Rate hist_rate = best_rate(ctx.min_time(0.05), [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      hist.record(value & 0xffff);
      value = value * 2862933555777941757ull + 3037000493ull;
    }
  });
  report.metric("histogram_record_per_sec",
                hist_rate.per_second() * static_cast<double>(kBatch));

  const bench::Rate span_rate = best_rate(ctx.min_time(0.05), [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      HYPERCAST_OBS_SPAN("bench.noop");
    }
  });
  report.metric("span_untraced_per_sec",
                span_rate.per_second() * static_cast<double>(kBatch));

  std::uint64_t clock_sink = 0;
  const bench::Rate clock_rate = best_rate(ctx.min_time(0.05), [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i) clock_sink ^= obs::now_ns();
  });
  report.metric("now_ns_per_sec",
                clock_rate.per_second() * static_cast<double>(kBatch));
  if (clock_sink == 1) std::puts("");  // keep the reads observable

  std::printf(
      "  counter %.0f M/s  histogram %.0f M/s  untraced span %.0f M/s  "
      "clock %.0f M/s\n",
      counter_rate.per_second() * kBatch / 1e6,
      hist_rate.per_second() * kBatch / 1e6,
      span_rate.per_second() * kBatch / 1e6,
      clock_rate.per_second() * kBatch / 1e6);

  // ---- cached serving, stats off vs on ----
  const hcube::Topology topo(8);
  const std::size_t shapes = 4;
  const std::size_t m = 224;
  const std::size_t requests = ctx.quick ? 512 : 4096;
  workload::Rng rng(workload::derive_seed(2027, m, 0));
  const auto stream = translated_stream(topo, shapes, m, requests, rng);

  const auto cache = std::make_shared<coll::ScheduleCache>();
  const coll::ServePipeline cached("wsort", cache);

  obs::set_stats_enabled(false);
  for (const auto& req : stream) (void)cached.serve(req);  // warm the cache

  std::size_t i = 0;
  const auto serve_one = [&] {
    (void)cached.serve(stream[i]);
    i = (i + 1) % stream.size();
  };
  // Interleave off/on passes so a machine-load burst degrades both
  // sides of the overhead ratio alike; keep the best of each.
  bench::Rate best_off, best_on;
  for (int pass = 0; pass < kPasses; ++pass) {
    obs::set_stats_enabled(false);
    const bench::Rate off = bench::measure_rate(ctx.min_time(0.15), serve_one);
    obs::set_stats_enabled(true);
    const bench::Rate on = bench::measure_rate(ctx.min_time(0.15), serve_one);
    if (off.per_second() > best_off.per_second()) best_off = off;
    if (on.per_second() > best_on.per_second()) best_on = on;
  }
  const double overhead_pct =
      best_off.per_second() > 0.0
          ? (1.0 - best_on.per_second() / best_off.per_second()) * 100.0
          : 0.0;
  report.metric("wsort/224 serves_stats_off_per_sec", best_off.per_second());
  report.metric("wsort/224 serves_stats_on_per_sec", best_on.per_second());
  report.metric("wsort/224 stats_overhead_pct", overhead_pct);
  std::printf(
      "  wsort/224    %10.0f serves/s stats off  %10.0f stats on  "
      "overhead %.2f%%\n",
      best_off.per_second(), best_on.per_second(), overhead_pct);
}

const bench::Registration reg{
    {"micro_obs_overhead", bench::Kind::Micro,
     "observability primitive costs and cached-serving overhead with stats "
     "off vs on (8-cube)",
     run}};

}  // namespace
