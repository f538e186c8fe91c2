#include "core/channel_load.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <string_view>
#include <thread>

#include "coll/coscheduler.hpp"
#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/chain_algorithms.hpp"
#include "core/separate.hpp"
#include "core/wsort.hpp"
#include "sim/shard.hpp"
#include "test_util.hpp"
#include "workload/concurrent.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

ChannelLoadReport analyze(const MulticastSchedule& s) {
  return analyze_channel_load(s, assign_steps(s, PortModel::all_port()));
}

TEST(ChannelLoad, SingleUnicastLoadsItsPathOnce) {
  const Topology topo(4);
  MulticastSchedule s(topo, 0);
  s.add_send(0, 0b1011, {});  // 3 hops
  const auto report = analyze(s);
  EXPECT_EQ(report.channels_used, 3u);
  EXPECT_EQ(report.total_crossings, 3u);
  EXPECT_EQ(report.max_load, 1u);
  EXPECT_DOUBLE_EQ(report.avg_load, 1.0);
  EXPECT_EQ(report.max_step_channel_reuse, 1u);
  ASSERT_EQ(report.load_histogram.size(), 2u);
  EXPECT_EQ(report.load_histogram[1], 3u);
}

TEST(ChannelLoad, SeparateAddressingConcentratesLoad) {
  // All destinations behind one channel: the first arc is crossed m
  // times.
  const Topology topo(4);
  const MulticastRequest req{topo, 0, {8, 9, 10, 11}};
  const auto report = analyze(separate_addressing(req));
  EXPECT_EQ(report.max_load, 4u);
}

TEST(ChannelLoad, WsortLoadsEveryChannelAtMostOnce) {
  // A contention-free tree whose unicasts are pairwise arc-disjoint or
  // causally chained still never needs a channel twice in one step; for
  // W-sort the stronger property holds — each channel is crossed at
  // most once in the whole operation (subcube separation + distinct
  // channels per sender).
  workload::Rng rng(9001);
  for (const hcube::Dim n : {4, 6, 8}) {
    const Topology topo(n);
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t m =
          1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 60);
      const auto req = random_request(topo, m, rng);
      const auto report = analyze(wsort(req));
      EXPECT_EQ(report.max_load, 1u) << "n=" << n << " m=" << m;
      EXPECT_EQ(report.max_step_channel_reuse, 1u);
    }
  }
}

TEST(ChannelLoad, UCubeReusesChannelsAcrossSteps) {
  // Figure 3's set: U-cube pushes two messages through 0111 -> 1111.
  const Topology topo(4);
  const MulticastRequest req{
      topo, 0, {0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110,
                0b1111}};
  const auto report = analyze(ucube(req));
  EXPECT_GE(report.max_load, 2u);
  // ...but never twice within one step (that would be contention).
  EXPECT_EQ(report.max_step_channel_reuse, 1u);
}

TEST(ChannelLoad, EmptyScheduleIsAllZeros) {
  MulticastSchedule s(Topology(4), 2);
  const auto report = analyze(s);
  EXPECT_EQ(report.channels_used, 0u);
  EXPECT_EQ(report.total_crossings, 0u);
  EXPECT_EQ(report.max_load, 0u);
  EXPECT_DOUBLE_EQ(report.avg_load, 0.0);
}

TEST(ChannelLoad, HistogramSumsToChannelsUsed) {
  const Topology topo(6);
  workload::Rng rng(9007);
  const auto req = random_request(topo, 30, rng);
  for (const auto& algo : all_algorithms()) {
    const auto report = analyze(algo.build(req));
    std::size_t sum = 0;
    std::size_t crossings = 0;
    for (std::size_t k = 1; k < report.load_histogram.size(); ++k) {
      sum += report.load_histogram[k];
      crossings += k * report.load_histogram[k];
    }
    EXPECT_EQ(sum, report.channels_used) << algo.name;
    EXPECT_EQ(crossings, report.total_crossings) << algo.name;
  }
}

// ---- the memoized footprint (MulticastSchedule::footprint) -------------

bool same_footprint(const ArcFootprint& a, const ArcFootprint& b) {
  return a.arcs == b.arcs && a.self_max == b.self_max;
}

TEST(FootprintMemo, EqualsArcFootprintOnCachedAndUncachedTrees) {
  workload::Rng rng(0xF007ull);
  auto cache = std::make_shared<coll::ScheduleCache>();
  for (const std::string_view name :
       {"ucube", "maxport", "combine", "wsort", "separate", "sftree"}) {
    const auto& algo = find_algorithm(name);
    const coll::ServePipeline pipeline(std::string(name), cache);
    // separate and sftree are served pass-through (built per request).
    const bool cached = name != "separate" && name != "sftree";
    for (const hcube::Dim n : {4, 7, 9}) {
      const Topology topo(n);
      for (int trial = 0; trial < 6; ++trial) {
        const std::size_t m =
            1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 80);
        const auto req = random_request(topo, m, rng);
        const MulticastSchedule built = algo.build(req);
        EXPECT_TRUE(same_footprint(built.footprint(),
                                   arc_footprint(topo, built)))
            << name << " n=" << n << " m=" << m;
        // Served twice: the second serve is a cache hit (the same
        // object) for the translated algorithms.
        const auto served = pipeline.serve(req);
        EXPECT_TRUE(same_footprint(served->footprint(),
                                   arc_footprint(topo, *served)))
            << name << " n=" << n << " m=" << m;
        EXPECT_TRUE(same_footprint(served->footprint(), built.footprint()));
        if (cached) {
          const auto again = pipeline.serve(req);
          ASSERT_EQ(again.get(), served.get());
          EXPECT_EQ(&again->footprint(), &served->footprint());
        }
      }
    }
  }
}

TEST(FootprintMemo, RepeatedCallsReturnTheSameObject) {
  const Topology topo(6);
  workload::Rng rng(0xADD5ull);
  const MulticastSchedule s = wsort(random_request(topo, 20, rng));
  const std::size_t before = s.footprint_bytes();
  const ArcFootprint* first = &s.footprint();
  EXPECT_EQ(&s.footprint(), first);
  EXPECT_EQ(&s.footprint(), first);
  // Once computed, the footprint is part of the schedule's resident size.
  EXPECT_GT(s.footprint_bytes(), before);
}

TEST(FootprintMemo, MutationAndCopyAssignmentRecompute) {
  const Topology topo(5);
  MulticastSchedule s(topo, 0);
  s.add_send(0, 0b00011);
  ASSERT_EQ(s.footprint().total_crossings(), 2u);

  // add_send: the new unicast's arcs show up.
  s.add_send(0, 0b10000);
  EXPECT_TRUE(same_footprint(s.footprint(), arc_footprint(topo, s)));
  EXPECT_EQ(s.footprint().total_crossings(), 3u);

  // Copy-assignment over a schedule that already has a footprint.
  MulticastSchedule copy(topo, 0b01000);
  copy.add_send(0b01000, 0b11000);
  ASSERT_EQ(copy.footprint().total_crossings(), 1u);
  copy = s;
  EXPECT_TRUE(same_footprint(copy.footprint(), s.footprint()));
  EXPECT_NE(&copy.footprint(), &s.footprint());
  const MulticastSchedule constructed(s);
  EXPECT_TRUE(same_footprint(constructed.footprint(), s.footprint()));
  EXPECT_NE(&constructed.footprint(), &s.footprint());

  // assign_translated: the footprint of the translated tree, not of the
  // schedule's previous contents.
  MulticastSchedule translated(topo, 0);
  translated.add_send(0, 0b11111);
  ASSERT_EQ(translated.footprint().total_crossings(), 5u);
  s.finalize();
  translated.assign_translated(s, 0b10101);
  EXPECT_TRUE(same_footprint(translated.footprint(),
                             arc_footprint(topo, translated)));
  EXPECT_EQ(translated.footprint().total_crossings(), 3u);

  // reset: an empty schedule has an empty footprint.
  s.reset(topo, 3);
  EXPECT_TRUE(s.footprint().arcs.empty());
  EXPECT_EQ(s.footprint().self_max, 0u);

  // A move hands the computed footprint over instead of recomputing.
  const ArcFootprint* held = &translated.footprint();
  const MulticastSchedule moved(std::move(translated));
  EXPECT_EQ(&moved.footprint(), held);
}

TEST(FootprintMemo, ConcurrentFirstCallsSeeOneObject) {
  // Several server workers may ask a shared cached tree for its
  // footprint at once; all of them must get the one published object.
  const Topology topo(8);
  workload::Rng rng(0xC0C0ull);
  const coll::ServePipeline pipeline(
      "wsort", std::make_shared<coll::ScheduleCache>());
  constexpr int kThreads = 4;
  for (int trial = 0; trial < 16; ++trial) {
    const auto tree = pipeline.serve(random_request(topo, 60, rng));
    std::atomic<int> ready{0};
    std::vector<const ArcFootprint*> seen(kThreads, nullptr);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        seen[t] = &tree->footprint();
      });
    }
    for (std::thread& t : pool) t.join();
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(&tree->footprint(), seen[0]);
    EXPECT_TRUE(same_footprint(*seen[0], arc_footprint(topo, *tree)));
  }
}

/// Reference partition: union-find by pairwise comparison of fresh
/// arc_footprint arcs and recipients() node sets.
std::vector<std::vector<std::size_t>> reference_shards(
    const Topology& topo, std::span<const sim::CollectiveJob> jobs) {
  std::vector<std::set<std::uint32_t>> arcs(jobs.size());
  std::vector<std::set<NodeId>> nodes(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto& [arc, count] :
         arc_footprint(topo, *jobs[j].schedule).arcs) {
      arcs[j].insert(arc);
    }
    nodes[j] = recipient_set(*jobs[j].schedule);
    nodes[j].insert(jobs[j].schedule->source());
  }
  const auto meets = [](const auto& a, const auto& b) {
    for (const auto& x : a) {
      if (b.contains(x)) return true;
    }
    return false;
  };
  std::vector<std::size_t> root(jobs.size());
  std::iota(root.begin(), root.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (root[x] != x) x = root[x];
    return x;
  };
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      if (meets(arcs[a], arcs[b]) || meets(nodes[a], nodes[b])) {
        root[std::max(find(a), find(b))] = std::min(find(a), find(b));
      }
    }
  }
  std::vector<std::vector<std::size_t>> shards;
  std::vector<std::size_t> shard_of(jobs.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t r = find(j);
    if (shard_of[r] == jobs.size()) {
      shard_of[r] = shards.size();
      shards.emplace_back();
    }
    shards[shard_of[r]].push_back(j);
  }
  return shards;
}

TEST(FootprintMemo, CoschedPlansAndShardsMatchFreshFootprints) {
  // The three ablation_coschedule mixes, served through the cache so
  // the co-scheduler and the partition read the memoized footprints of
  // shared trees.
  const Topology topo(6);
  const coll::ServePipeline pipeline(
      "wsort", std::make_shared<coll::ScheduleCache>());
  coll::CoScheduler scheduler;
  for (const std::string_view mix : {"multi_tenant", "bursty", "hot_spot"}) {
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      workload::Rng rng(workload::derive_seed(
          7193, static_cast<std::uint64_t>(mix[0]), trial));
      std::vector<workload::ConcurrentRequest> requests;
      if (mix == "multi_tenant") {
        requests = workload::multi_tenant_mix(topo, 4, 6, 24, rng);
      } else if (mix == "bursty") {
        requests = workload::bursty_arrivals(topo, 3, 8, 16, 1'000'000, rng);
      } else {
        requests = workload::hot_spot_mix(topo, 24, 16, 8, rng);
      }
      std::vector<std::shared_ptr<const MulticastSchedule>> trees;
      std::vector<const MulticastSchedule*> ptrs;
      std::vector<ArcFootprint> fresh;
      for (const auto& r : requests) {
        trees.push_back(
            pipeline.serve(MulticastRequest{topo, r.source, r.destinations}));
        ptrs.push_back(trees.back().get());
        fresh.push_back(arc_footprint(topo, *trees.back()));
      }

      const coll::CoschedPlan plan = scheduler.plan(ptrs);
      const coll::CoschedPlan expected = scheduler.plan_footprints(topo, fresh);
      ASSERT_EQ(plan.waves.size(), expected.waves.size()) << mix;
      for (std::size_t w = 0; w < plan.waves.size(); ++w) {
        EXPECT_EQ(plan.waves[w].members, expected.waves[w].members) << mix;
        EXPECT_EQ(plan.waves[w].peak_overlap, expected.waves[w].peak_overlap);
        EXPECT_EQ(plan.waves[w].start_offset_ns,
                  expected.waves[w].start_offset_ns);
      }
      EXPECT_EQ(plan.deferred, expected.deferred);
      EXPECT_EQ(plan.oblivious_fallback, expected.oblivious_fallback);
      EXPECT_EQ(plan.peak_overlap, expected.peak_overlap);

      // The whole batch, and each wave alone. (Destinations are drawn
      // cube-wide, so these batches stay one shard; ShardPlanTest covers
      // batches that split.)
      const auto jobs = coll::CoScheduler::to_jobs(plan, ptrs);
      EXPECT_EQ(sim::partition_collective_jobs(jobs).shards,
                reference_shards(topo, jobs))
          << mix;
      for (const auto& wave : plan.waves) {
        std::vector<sim::CollectiveJob> wave_jobs;
        for (const std::size_t i : wave.members) {
          wave_jobs.push_back(sim::CollectiveJob{ptrs[i], 0});
        }
        EXPECT_EQ(sim::partition_collective_jobs(wave_jobs).shards,
                  reference_shards(topo, wave_jobs))
            << mix;
      }
    }
  }
}

}  // namespace
}  // namespace hypercast::core
