// Adversarial serving-pipeline tests: malformed and oversized
// destination sets, zero-destination requests, deadline shedding,
// faulted serves and cache clears racing serve_batch, and pipelines
// sharing one cache. These run under the sanitize CI job (ASan/UBSan),
// so "survives" means clean under instrumentation.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "fault/fault_inject.hpp"
#include "fault/repair.hpp"
#include "obs/obs.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using coll::ScheduleCache;
using coll::ServePipeline;
using core::MulticastRequest;

MulticastRequest request_of(int dim, hcube::NodeId source,
                            std::vector<hcube::NodeId> dests) {
  return MulticastRequest{hcube::Topology(static_cast<hcube::Dim>(dim)),
                          source, std::move(dests)};
}

TEST(ServeAdversarial, MalformedDestinationSetsThrow) {
  const ServePipeline pipeline("wsort", nullptr);

  // Duplicate destination.
  EXPECT_THROW(pipeline.serve(request_of(4, 0, {1, 2, 2})),
               std::invalid_argument);
  // Source listed as a destination.
  EXPECT_THROW(pipeline.serve(request_of(4, 3, {3, 5})),
               std::invalid_argument);
  // Out-of-range destination (oversized node id for the cube).
  EXPECT_THROW(pipeline.serve(request_of(4, 0, {16})),
               std::invalid_argument);
  EXPECT_THROW(pipeline.serve(request_of(4, 0, {0xffffffffu})),
               std::invalid_argument);
  // Out-of-range source.
  EXPECT_THROW(pipeline.serve(request_of(4, 16, {1})),
               std::invalid_argument);
}

TEST(ServeAdversarial, ZeroDestinationRequestsServeEmptySchedules) {
  for (const char* algo : {"wsort", "ucube"}) {
    const ServePipeline uncached(algo, nullptr);
    const ServePipeline cached(algo, std::make_shared<ScheduleCache>(
                                         ScheduleCache::Config{}));
    const MulticastRequest empty = request_of(5, 7, {});
    for (const ServePipeline* pipeline : {&uncached, &cached}) {
      const auto schedule = pipeline->serve(empty);
      ASSERT_NE(schedule, nullptr);
      EXPECT_EQ(schedule->source(), 7u);
      EXPECT_TRUE(schedule->senders().empty());
      // Twice: the second serve may come from the cache.
      EXPECT_EQ(*pipeline->serve(empty), *schedule);
    }
  }
}

TEST(ServeAdversarial, OversizedBroadcastSetsServe) {
  // The largest legal destination set: every node but the source.
  const hcube::Topology topo(8);
  std::vector<hcube::NodeId> all;
  for (hcube::NodeId u = 1; u < topo.num_nodes(); ++u) all.push_back(u);
  const ServePipeline pipeline("wsort", std::make_shared<ScheduleCache>(
                                            ScheduleCache::Config{}));
  const auto schedule =
      pipeline.serve(MulticastRequest{topo, 0, all});
  ASSERT_NE(schedule, nullptr);
  // One destination too many (a duplicate, since the id space is full).
  all.push_back(1);
  EXPECT_THROW(pipeline.serve(MulticastRequest{topo, 0, all}),
               std::invalid_argument);
}

TEST(ServeAdversarial, BatchWithExpiredDeadlineShedsEverything) {
  obs::FlagsGuard flags;
  obs::set_stats_enabled(true);
  const ServePipeline pipeline("wsort", nullptr);
  workload::Rng rng(0xDEAD11ull);
  const hcube::Topology topo(6);
  std::vector<MulticastRequest> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(MulticastRequest{
        topo, 0, workload::random_destinations(topo, 0, 12, rng)});
  }

  // A deadline in the past sheds every slot, single- and multi-worker.
  for (const int threads : {1, 4}) {
    const auto shed = pipeline.serve_batch(
        requests, ServePipeline::BatchPolicy{threads, 1});
    ASSERT_EQ(shed.size(), requests.size());
    for (const auto& slot : shed) EXPECT_EQ(slot, nullptr);
  }
  // No deadline (0) serves every slot.
  const auto served = pipeline.serve_batch(
      requests, ServePipeline::BatchPolicy{2, 0});
  for (const auto& slot : served) EXPECT_NE(slot, nullptr);
  // A generous deadline behaves like none.
  const auto relaxed = pipeline.serve_batch(
      requests,
      ServePipeline::BatchPolicy{2, obs::now_ns() + 60'000'000'000ull});
  for (std::size_t i = 0; i < relaxed.size(); ++i) {
    ASSERT_NE(relaxed[i], nullptr);
    EXPECT_EQ(*relaxed[i], *served[i]);
  }
}

TEST(ServeAdversarial, ConcurrentFaultedServesAndClearsDuringServeBatch) {
  obs::FlagsGuard flags;
  auto cache = std::make_shared<ScheduleCache>(ScheduleCache::Config{});
  const ServePipeline cached("wsort", cache);
  const ServePipeline direct("wsort", nullptr);

  workload::Rng rng(0xEB0C5ull);
  const hcube::Topology topo(7);
  std::vector<MulticastRequest> requests;
  for (int i = 0; i < 64; ++i) {
    const auto source =
        static_cast<hcube::NodeId>(rng() % topo.num_nodes());
    requests.push_back(MulticastRequest{
        topo, source,
        workload::random_destinations(topo, source, 1 + (i % 30), rng)});
  }
  // Two fault sets served side by side: each is a value handed to the
  // call, so neither ever disturbs the other's entries.
  const fault::FaultSet faults[2] = {fault::connected_link_faults(topo, 3, rng),
                                     fault::connected_link_faults(topo, 5, rng)};
  std::vector<std::shared_ptr<const core::MulticastSchedule>> expected;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> expected_faulted[2];
  for (const MulticastRequest& r : requests) {
    expected.push_back(direct.serve(r));
    for (int f = 0; f < 2; ++f) {
      expected_faulted[f].push_back(direct.serve(r, faults[f]));
    }
  }

  // Hammer serve_batch and faulted serves while another thread keeps
  // clearing the cache (dropping entries mid-flight). Results must stay
  // bit-identical to direct construction throughout.
  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load()) {
      cache->clear();
      std::this_thread::yield();
    }
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 2; ++t) {
    hammers.emplace_back([&] {
      for (int round = 0; round < 30; ++round) {
        const auto results = cached.serve_batch(requests, 1 + (round % 3));
        for (std::size_t i = 0; i < results.size(); ++i) {
          if (results[i] == nullptr || !(*results[i] == *expected[i])) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    hammers.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        const int f = (round + t) % 2;
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const auto served = cached.serve(requests[i], faults[f]);
          if (!(*served == *expected_faulted[f][i])) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : hammers) t.join();
  stop.store(true);
  clearer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeAdversarial, PipelinesSharingACacheKeepTheirOwnRepairs) {
  // Regression: the faulted serve_striped's single-tree fallback cached
  // its repair under one constant algorithm id plus the fault
  // fingerprint, not under the pipeline's algorithm — so a wsort
  // pipeline sharing a cache with a ucube one was handed the ucube
  // repair. Each pipeline must get exactly its uncached result.
  const hcube::Topology topo(6);
  const MulticastRequest req{topo, 0, {1, 3, 7, 15, 31, 63, 42, 21}};
  fault::FaultSet faults(topo);
  faults.fail_link(0, 0);
  auto cache = std::make_shared<ScheduleCache>(ScheduleCache::Config{});
  std::vector<std::shared_ptr<const core::MulticastSchedule>> repairs;
  for (const char* algo : {"ucube", "wsort"}) {
    const ServePipeline shared(algo, cache);
    const ServePipeline alone(algo, nullptr);
    const coll::StripedPlan plan = shared.serve_striped(req, 100, {}, faults);
    const coll::StripedPlan reference =
        alone.serve_striped(req, 100, {}, faults);
    ASSERT_FALSE(plan.striped);
    EXPECT_EQ(plan.repaired_trees, 1u) << algo;
    EXPECT_TRUE(*plan.trees.front() == *reference.trees.front()) << algo;
    // A repeat is served from this pipeline's own entry.
    EXPECT_EQ(shared.serve_striped(req, 100, {}, faults).trees.front(),
              plan.trees.front())
        << algo;
    repairs.push_back(plan.trees.front());
  }
  EXPECT_FALSE(*repairs[0] == *repairs[1]);  // the two repairs differ
}

}  // namespace
}  // namespace hypercast
