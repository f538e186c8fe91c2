// stripe_faulted: in-process 8-cube striped broadcasts and large
// multicasts with k = 2 Reed-Solomon parity under 1-2 connected link
// faults, redrawn every kOpsPerEpoch ops (fault churn). The only workload
// that runs the repair ladder (drop -> certified disjoint -> greedy), the
// GF(256) coder and the cache entries keyed by fault fingerprint.
//
// One op: serve_striped(faults) -> split_stripes -> zero the stripes of
// the dropped trees -> reassemble_stripes -> byte-compare with the
// payload.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "coll/serve_pipeline.hpp"
#include "coll/striped.hpp"
#include "common.hpp"
#include "fault/fault_inject.hpp"
#include "obs/obs.hpp"
#include "sim/wormhole_sim.hpp"
#include "workload/random_sets.hpp"

namespace perfbench {

namespace coll = hypercast::coll;
namespace core = hypercast::core;
namespace fault = hypercast::fault;
namespace hcube = hypercast::hcube;
namespace sim = hypercast::sim;
namespace workload = hypercast::workload;

namespace {

constexpr hcube::Dim kDim = 8;
constexpr std::size_t kParity = 2;
constexpr std::size_t kOpsPerEpoch = 32;      // ops between fault redraws
constexpr std::size_t kRequestsPerEpoch = 8;  // distinct requests per epoch
constexpr std::size_t kMinDests = 64;
constexpr std::size_t kMinPayload = std::size_t{64} << 10;
constexpr std::size_t kMaxPayload = std::size_t{1} << 20;
constexpr std::uint64_t kWarmEpochs = 2;
constexpr std::uint64_t kSimEpochs = 16;  // DES-replayed: 16 x 32 launches

/// One fault epoch: its fault set and the requests its ops cycle
/// through, half broadcasts and half multicasts. A pure function of
/// (seed, epoch).
struct Epoch {
  fault::FaultSet faults;
  std::vector<core::MulticastRequest> requests;
};

Epoch make_epoch(const hcube::Topology& topo, std::uint64_t seed,
                 std::uint64_t e) {
  workload::Rng rng(workload::derive_seed(seed, 0xfa17, e));
  const std::size_t links = 1 + rng() % 2;
  Epoch epoch{fault::connected_link_faults(topo, links, rng), {}};
  for (std::size_t r = 0; r < kRequestsPerEpoch; ++r) {
    const auto source = static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    std::vector<hcube::NodeId> dests;
    if (r % 2 == 0) {
      for (hcube::NodeId v = 0; v < topo.num_nodes(); ++v) {
        if (v != source) dests.push_back(v);
      }
    } else {
      const std::size_t m =
          log_uniform(unit(rng()), kMinDests, topo.num_nodes() - 1);
      dests = workload::random_destinations(topo, source, m, rng);
    }
    epoch.requests.push_back({topo, source, std::move(dests)});
  }
  return epoch;
}

/// The payload of op `j` of epoch `e`: its size and its offset into the
/// shared random buffer. Sizes are log-uniform and stratified: the ops of
/// an epoch each draw from a different one of kOpsPerEpoch equal slices
/// of the log scale, so every epoch carries the same spread of sizes.
std::pair<std::size_t, std::size_t> payload_of(std::uint64_t seed,
                                               std::uint64_t e,
                                               std::uint64_t j) {
  Bits bits(workload::derive_seed(seed, 0x9a71, e));
  std::array<std::uint64_t, kOpsPerEpoch> stratum;
  for (std::size_t i = 0; i < kOpsPerEpoch; ++i) stratum[i] = i;
  for (std::size_t i = kOpsPerEpoch - 1; i > 0; --i) {
    std::swap(stratum[i], stratum[bits() % (i + 1)]);
  }
  Bits own(workload::derive_seed(seed, 0x9a72 + e, j));
  const double u = (static_cast<double>(stratum[j]) + unit(own())) /
                   static_cast<double>(kOpsPerEpoch);
  return {log_uniform(u, kMinPayload, kMaxPayload),
          own() % (kMaxPayload + 1)};
}

coll::StripeOptions stripe_options() {
  coll::StripeOptions options;
  options.parity_stripes = kParity;
  return options;
}

/// Per-op plan facts the traced run reports.
struct OpTally {
  std::uint64_t ops = 0;
  std::uint64_t repaired_disjoint = 0;
  std::uint64_t repaired_greedy = 0;
  std::uint64_t dropped = 0;
  std::uint64_t certified = 0;
  std::uint64_t payload_bytes = 0;
};

class Runner {
 public:
  Runner(const Args& args, Spans& spans)
      : args_(args),
        spans_(spans),
        topo_(kDim),
        cache_(std::make_shared<coll::ScheduleCache>()),
        pipeline_("wsort", cache_),
        buffer_(2 * kMaxPayload + 1) {
    workload::Rng rng(workload::derive_seed(args.seed, 0xb0f, 0));
    for (std::size_t i = 0; i < buffer_.size(); i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(buffer_.data() + i, &word,
                  std::min<std::size_t>(8, buffer_.size() - i));
    }
  }

  const coll::ScheduleCache& cache() const { return *cache_; }

  /// Runs op number `k` of the stream; false when its output is wrong or
  /// the plan could not be made.
  bool op(std::uint64_t k, OpTally& tally) {
    const std::uint64_t e = k / kOpsPerEpoch;
    const std::uint64_t j = k % kOpsPerEpoch;
    if (!epoch_ || epoch_index_ != e) {
      epoch_ = std::make_unique<Epoch>(make_epoch(topo_, args_.seed, e));
      epoch_index_ = e;
    }
    const core::MulticastRequest& request =
        epoch_->requests[j % kRequestsPerEpoch];
    const auto [size, offset] = payload_of(args_.seed, e, j);
    const std::span<const std::uint8_t> payload(buffer_.data() + offset, size);
    try {
      Spans::Scope op(spans_, "op");
      coll::StripedPlan plan;
      {
        Spans::Scope s(spans_, "coll.serve_striped");
        plan = pipeline_.serve_striped(request, size, stripe_options(),
                                       epoch_->faults);
      }
      std::vector<std::vector<std::uint8_t>> stripes;
      {
        Spans::Scope s(spans_, "coll.split_stripes");
        stripes =
            coll::split_stripes(payload, plan.data_stripes, plan.parity_stripes);
      }
      std::vector<std::size_t> missing;
      {
        Spans::Scope s(spans_, "bench.drop_stripes");
        for (const int d : plan.dropped_trees) {
          const auto tree = static_cast<std::size_t>(d);
          std::fill(stripes[tree].begin(), stripes[tree].end(), 0);
          missing.push_back(tree);
        }
      }
      std::vector<std::uint8_t> out;
      {
        Spans::Scope s(spans_, "coll.reassemble_stripes");
        out = coll::reassemble_stripes(stripes, plan.data_stripes, size,
                                       missing);
      }
      bool same = false;
      {
        Spans::Scope s(spans_, "bench.verify");
        if (k >= kWarmEpochs * kOpsPerEpoch && corrupted_ < args_.corrupt &&
            !out.empty()) {
          out[out.size() / 2] ^= 0x5a;
          ++corrupted_;
        }
        same = out.size() == size &&
               std::memcmp(out.data(), payload.data(), size) == 0;
      }
      tally.ops += 1;
      tally.repaired_disjoint += plan.repaired_disjoint;
      tally.repaired_greedy += plan.repaired_greedy;
      tally.dropped += plan.dropped_trees.size();
      tally.certified += plan.certified_disjoint ? 1 : 0;
      tally.payload_bytes += size;
      return same && plan.striped;
    } catch (const std::exception&) {
      return false;
    }
  }

  /// The untimed check: plan every op of the first kSimEpochs epochs and
  /// replay its striped launch in the DES with the epoch's faults armed,
  /// so a worm entering a faulted channel throws. Every active tree must
  /// reach every destination.
  std::uint64_t replay_plans(SimTally& tally) const {
    std::uint64_t bad = 0;
    for (std::uint64_t e = 0; e < kSimEpochs; ++e) {
      const Epoch epoch = make_epoch(topo_, args_.seed, e);
      sim::SimConfig config;
      config.faults = &epoch.faults;
      for (std::size_t j = 0; j < kOpsPerEpoch; ++j) {
        const core::MulticastRequest& request =
            epoch.requests[j % kRequestsPerEpoch];
        try {
          const coll::StripedPlan plan = pipeline_.serve_striped(
              request, payload_of(args_.seed, e, j).first, stripe_options(),
              epoch.faults);
          const auto jobs = plan.jobs();
          const sim::MultiSimResult result =
              sim::simulate_collectives(jobs, config);
          bool delivered = true;
          for (const sim::SimResult& job : result.per_job) {
            for (const hcube::NodeId d : request.destinations) {
              delivered = delivered && job.delivery.contains(d);
            }
          }
          if (!delivered) {
            ++bad;
            continue;
          }
          tally.add_striped(result, request.destinations);
        } catch (const std::exception&) {
          ++bad;
        }
      }
    }
    return bad;
  }

 private:
  const Args& args_;
  Spans& spans_;
  hcube::Topology topo_;
  std::shared_ptr<coll::ScheduleCache> cache_;
  coll::ServePipeline pipeline_;
  std::vector<std::uint8_t> buffer_;
  std::unique_ptr<Epoch> epoch_;
  std::uint64_t epoch_index_ = 0;
  std::uint64_t corrupted_ = 0;
};

void warm(Runner& runner) {
  OpTally ignored;
  for (std::uint64_t k = 0; k < kWarmEpochs * kOpsPerEpoch; ++k) {
    if (!runner.op(k, ignored)) {
      throw std::runtime_error("stripe_faulted: warm-up op failed");
    }
  }
}

}  // namespace

Result run_stripe(const Args& args) {
  Result out;
  Spans off(false);
  std::uint64_t k = kWarmEpochs * kOpsPerEpoch;
  if (!args.trace) {
    std::unique_ptr<Runner> runner;
    set_up_repeatedly(out, runner, 1, [&] {
      auto r = std::make_unique<Runner>(args, off);
      warm(*r);
      return r;
    });
    OpTally tally;
    const Timed t =
        timed_loop(static_cast<std::uint64_t>(args.seconds * 1e9), 1,
                   [&] { return runner->op(k++, tally); });
    out.attempted = t.attempted;
    out.failed = t.failed;
    report_timed(out, t, "verified striped op");
    t.used.report(out, t.attempted - t.failed, "timed loop");
    SimTally sim;
    const std::uint64_t bad = runner->replay_plans(sim);
    out.failed += bad;
    out.note("DES replay with faults armed: " +
             std::to_string(sim.launches()) + " plans delivered, " +
             std::to_string(bad) + " failed");
    sim.report(out);
    out.set("peak_rss_mib", peak_rss_mib());
    return out;
  }

  Spans on(true);
  Runner plain(args, off);
  warm(plain);
  const auto half = static_cast<std::uint64_t>(args.seconds * 0.5e9);
  OpTally ignored;
  const Timed untraced =
      timed_loop(half, 1, [&] { return plain.op(k++, ignored); });

  Runner traced_runner(args, on);
  warm(traced_runner);
  on.clear();
  const hypercast::obs::FlagsGuard flags;
  hypercast::obs::set_stats_enabled(true);
  const auto before = traced_runner.cache().stats();
  std::uint64_t k2 = kWarmEpochs * kOpsPerEpoch;
  OpTally t;
  const Timed traced =
      timed_loop(half, 1, [&] { return traced_runner.op(k2++, t); });
  const auto after = traced_runner.cache().stats();
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  set_trace_overhead(out, untraced.ops_per_s, traced.ops_per_s);
  out.set("wall.ops_per_s", untraced.wall_ops_per_s);
  report_timed(out, untraced, "verified striped op, untraced half");

  const double ops = static_cast<double>(std::max<std::uint64_t>(1, t.ops));
  out.set("stripe.plan_us_mean", on.mean_ns("coll.serve_striped") / 1e3);
  out.set("stripe.repair_disjoint_per_op",
          static_cast<double>(t.repaired_disjoint) / ops);
  out.set("stripe.repair_greedy_per_op",
          static_cast<double>(t.repaired_greedy) / ops);
  out.set("stripe.dropped_per_op", static_cast<double>(t.dropped) / ops);
  out.set("stripe.certified_frac", static_cast<double>(t.certified) / ops);
  set_cache_metrics(out, before, after);
  out.set("stripe.cache_hit_rate", out.metrics.at("cache.hit_rate"));
  const double bytes = static_cast<double>(t.payload_bytes);
  const double encode_ns = on.total_ns("coll.split_stripes");
  const double reconstruct_ns = on.total_ns("coll.reassemble_stripes");
  out.set("code.encode_us_mean", on.mean_ns("coll.split_stripes") / 1e3);
  out.set("code.encode_gbps", encode_ns > 0 ? bytes / encode_ns : 0.0);
  out.set("code.reconstruct_us_mean",
          on.mean_ns("coll.reassemble_stripes") / 1e3);
  out.set("code.reconstruct_gbps",
          reconstruct_ns > 0 ? bytes / reconstruct_ns : 0.0);
  out.set("stripe_faulted.unattributed_frac", on.unattributed_frac());
  on.note_summary(out);
  if (!args.trace_out.empty()) on.write_chrome(args.trace_out);
  return out;
}

}  // namespace perfbench
