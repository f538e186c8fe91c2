// The schedule-serving cache: canonical keys, the two-level (relative +
// materialized-translation) LRU, fault-scoped keys, and the
// bit-identical guarantee — cached serving returns schedules equal
// (MulticastSchedule::operator==) to direct construction, sequentially,
// in batches, and under a multi-threaded hammer with concurrent
// clears.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "coll/schedule_cache.hpp"
#include "coll/serve_pipeline.hpp"
#include "core/cache_key.hpp"
#include "core/chain_algorithms.hpp"
#include "fault/fault_set.hpp"
#include "fault/repair.hpp"
#include "test_util.hpp"
#include "workload/random_sets.hpp"

namespace hypercast {
namespace {

using namespace testutil;
using coll::ScheduleCache;
using coll::ServePipeline;
using core::CacheKey;

constexpr std::uint64_t kSeed = 0x5ca1ab1e5eedull;

CacheKey key_of(const core::MulticastRequest& req, std::uint8_t algo = 0,
                bool absolute = false) {
  CacheKey key;
  core::canonical_key_into(req.topo, req.source, req.destinations, algo,
                           absolute, kSeed, key);
  return key;
}

// ---- canonical keys ------------------------------------------------------

TEST(CacheKey, ValidatesLikeRequestValidate) {
  // Dense chains take the bitmap counting-sort path...
  const Topology small(4, Resolution::HighToLow);
  EXPECT_THROW(key_of({small, 3, {1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(key_of({small, 0, {5, 7, 5}}), std::invalid_argument);
  EXPECT_THROW(key_of({small, 0, {1, 99}}), std::invalid_argument);
  EXPECT_THROW(key_of({small, 99, {1, 2}}), std::invalid_argument);
  // ...sparse chains on a big cube take the comparison-sort path.
  const Topology big(10, Resolution::HighToLow);
  EXPECT_THROW(key_of({big, 3, {1, 2, 3}}), std::invalid_argument);
  EXPECT_THROW(key_of({big, 0, {5, 7, 5}}), std::invalid_argument);
  EXPECT_THROW(key_of({big, 0, {1, 4096}}), std::invalid_argument);
  EXPECT_NO_THROW(key_of({big, 0, {1, 2, 3}}));
}

TEST(CacheKey, WordsAreSortedRelativeKeys) {
  const Topology topo(4, Resolution::HighToLow);
  const auto key = key_of({topo, 5, {1, 12, 7}});
  // Relative keys: 1^5=4, 12^5=9, 7^5=2 -> sorted {2, 4, 9}.
  EXPECT_EQ(key.words, (std::vector<std::uint32_t>{2, 4, 9}));
  EXPECT_EQ(key.source, 0u);  // relative identity drops the source
}

TEST(CacheKey, TranslationInvariantIdentity) {
  // (u, D) and (0, u ^ D) canonicalize to the same relative key, for
  // both resolution orders and any destination order.
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(6, res);
    workload::Rng rng(77);
    for (int trial = 0; trial < 30; ++trial) {
      const auto req = random_request(topo, 1 + rng() % 40, rng);
      core::MulticastRequest rel{topo, 0, {}};
      for (const NodeId d : req.destinations) {
        rel.destinations.push_back(static_cast<NodeId>(d ^ req.source));
      }
      std::reverse(rel.destinations.begin(), rel.destinations.end());
      const auto a = key_of(req);
      const auto b = key_of(rel);
      EXPECT_TRUE(a == b);
      EXPECT_EQ(a.hash, b.hash);
    }
  }
}

TEST(CacheKey, RekeySwitchesIdentityCheaply) {
  const Topology topo(6, Resolution::HighToLow);
  auto key = key_of({topo, 9, {1, 2, 3}}, /*algo=*/3, /*absolute=*/true);
  EXPECT_TRUE(key.absolute);
  EXPECT_EQ(key.source, 9u);
  const auto absolute_hash = key.hash;

  core::rekey(key, /*absolute=*/false, 0);
  EXPECT_FALSE(key.absolute);
  EXPECT_EQ(key.source, 0u);
  EXPECT_NE(key.hash, absolute_hash);
  EXPECT_TRUE(key == key_of({topo, 9, {1, 2, 3}}, 3, false));

  core::rekey(key, /*absolute=*/true, 9);
  EXPECT_EQ(key.hash, absolute_hash);
}

TEST(CacheKey, DistinctIdentitiesDoNotCollide) {
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 0, {1, 2, 3}};
  const auto base = key_of(req, 0, false);
  EXPECT_FALSE(base == key_of(req, 1, false));             // algorithm
  EXPECT_FALSE(base == key_of(req, 0, true));              // absolute bit
  const Topology low(6, Resolution::LowToHigh);
  EXPECT_FALSE(base == key_of({low, 0, {1, 2, 3}}, 0, false));  // resolution
  const Topology seven(7, Resolution::HighToLow);
  EXPECT_FALSE(base == key_of({seven, 0, {1, 2, 3}}, 0, false));  // dim
}

// ---- the cache proper ----------------------------------------------------

std::shared_ptr<const core::MulticastSchedule> build_wsort(
    const core::MulticastRequest& req) {
  return ServePipeline("wsort", nullptr).serve(req);
}

TEST(ScheduleCache, MissPutHitAndL1) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 0, {1, 2, 3, 60}};
  const auto key = key_of(req);

  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto schedule = build_wsort(req);
  cache.put(key, schedule);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, 0u);

  EXPECT_EQ(cache.get(key), schedule);  // shared tier
  EXPECT_EQ(cache.get(key), schedule);  // thread-local L1
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.l1_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.get(key), nullptr);  // generation bump killed the L1 slot
}

TEST(ScheduleCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  ScheduleCache::Config config;
  config.shards = 1;
  config.max_bytes = 1;  // everything over budget; keeps one entry
  ScheduleCache cache(config);
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    const auto req = random_request(topo, 8, rng);
    cache.put(key_of(req), build_wsort(req));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // never evicts the newest entry
  EXPECT_EQ(stats.evictions, 5u);
}

// An entry is charged for the key the cache stores, not the caller's:
// a recycled scratch key keeps the capacity of the largest request it
// ever held, and charging that capacity would shrink the effective byte
// budget by whatever the calling thread once served.
TEST(ScheduleCache, ChargesTheStoredKeyNotTheCallersScratch) {
  const Topology topo(8, Resolution::HighToLow);
  core::MulticastRequest big{topo, 0, {}};
  for (NodeId u = 1; u < topo.num_nodes(); ++u) big.destinations.push_back(u);
  const core::MulticastRequest small{topo, 0, {1, 2, 3}};

  CacheKey scratch = key_of(big);
  core::canonical_key_into(small.topo, small.source, small.destinations, 0,
                           /*absolute=*/false, kSeed, scratch);
  const CacheKey fresh = key_of(small);
  ASSERT_TRUE(scratch == fresh);
  ASSERT_GT(scratch.footprint_bytes(), fresh.footprint_bytes());

  const auto schedule = build_wsort(small);
  ScheduleCache via_scratch;
  via_scratch.put(scratch, schedule);
  ScheduleCache via_fresh;
  via_fresh.put(fresh, schedule);
  EXPECT_EQ(via_scratch.stats().bytes, via_fresh.stats().bytes);
}

CacheKey fault_key(const core::MulticastRequest& req,
                   const fault::FaultSet& faults, std::uint64_t salt) {
  CacheKey key = key_of(req, 7, /*absolute=*/true);
  core::scope_to_faults(key, faults.ids(), salt);
  return key;
}

TEST(ScheduleCache, FaultScopedKeysCompareFaultContent) {
  ScheduleCache cache;
  const Topology topo(6, Resolution::HighToLow);
  const core::MulticastRequest req{topo, 3, {1, 2, 60}};
  const auto schedule = build_wsort(req);

  // The same faults inserted in two orders (one link named from either
  // endpoint) are one identity: equal ids, equal fingerprint, a hit.
  fault::FaultSet a(topo);
  a.fail_link(0, 1);
  a.fail_node(9);
  fault::FaultSet a_reordered(topo);
  a_reordered.fail_node(9);
  a_reordered.fail_link(topo.neighbor(0, 1), 1);
  EXPECT_EQ(a.ids(), a_reordered.ids());
  EXPECT_EQ(a.fingerprint(kSeed), a_reordered.fingerprint(kSeed));
  const CacheKey key_a = fault_key(req, a, a.fingerprint(kSeed));
  cache.put(key_a, schedule);
  EXPECT_EQ(cache.get(fault_key(req, a_reordered,
                                a_reordered.fingerprint(kSeed))),
            schedule);

  // A different fault set never shares the entry, even with its salt
  // forced equal (hence an equal hash): the ids themselves differ.
  fault::FaultSet b(topo);
  b.fail_link(4, 0);
  const CacheKey key_b = fault_key(req, b, a.fingerprint(kSeed));
  EXPECT_EQ(key_b.hash, key_a.hash);
  EXPECT_FALSE(key_b == key_a);
  EXPECT_EQ(cache.get(key_b), nullptr);
  const auto other = build_wsort({topo, 3, {1, 2}});
  cache.put(key_b, other);
  EXPECT_EQ(cache.get(key_a), schedule);
  EXPECT_EQ(cache.get(key_b), other);

  // Nor does the fault-independent entry of the same request.
  EXPECT_EQ(cache.get(key_of(req, 7, /*absolute=*/true)), nullptr);
}

// ---- the serving pipeline ------------------------------------------------

TEST(ServePipeline, CachedEqualsUncachedForAllInvariantAlgorithms) {
  for (const Resolution res :
       {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(6, res);
    for (const char* name : {"ucube", "maxport", "combine", "wsort"}) {
      auto cache = std::make_shared<ScheduleCache>();
      ServePipeline cached(name, cache);
      ServePipeline uncached(name, nullptr);
      workload::Rng rng(31);
      for (int trial = 0; trial < 25; ++trial) {
        const auto req = random_request(topo, 1 + rng() % 50, rng);
        // Twice: the first serve materializes, the second must return
        // the bit-identical cached translation.
        const auto first = cached.serve(req);
        const auto second = cached.serve(req);
        const auto direct = uncached.serve(req);
        ASSERT_TRUE(*first == *direct) << name << " trial " << trial;
        ASSERT_TRUE(*second == *direct) << name << " trial " << trial;
      }
      EXPECT_GT(cache->stats().total_hits(), 0u);
    }
  }
}

// The four paper algorithms serving the same translated shapes through
// one shared cache: every pipeline gets exactly its own uncached tree,
// and each shape holds one relative entry per algorithm, keyed by the
// algorithm's position in paper_algorithms().
TEST(ServePipeline, PaperAlgorithmsShareOneCacheWithoutCollisions) {
  const Topology topo(6, Resolution::HighToLow);
  const auto paper = core::paper_algorithms();
  ASSERT_EQ(paper.size(), 4u);
  auto cache = std::make_shared<ScheduleCache>();
  std::vector<ServePipeline> cached;
  std::vector<ServePipeline> uncached;
  for (const core::AlgorithmEntry& entry : paper) {
    cached.emplace_back(entry.name, cache);
    uncached.emplace_back(entry.name, nullptr);
  }

  workload::Rng rng(61);
  std::vector<core::MulticastRequest> shapes;
  for (int s = 0; s < 6; ++s) {
    shapes.push_back({topo, 0,
                      workload::random_destinations(topo, 0, 3 + rng() % 40,
                                                    rng)});
  }
  constexpr NodeId kSources[] = {5, 17, 42, 63};
  for (const core::MulticastRequest& shape : shapes) {
    for (const NodeId u : kSources) {
      core::MulticastRequest req{topo, u, {}};
      for (const NodeId d : shape.destinations) {
        req.destinations.push_back(u ^ d);
      }
      for (std::size_t a = 0; a < paper.size(); ++a) {
        ASSERT_TRUE(*cached[a].serve(req) == *uncached[a].serve(req))
            << paper[a].name << " source " << u;
      }
    }
  }

  int all_distinct = 0;
  for (const core::MulticastRequest& shape : shapes) {
    std::vector<std::shared_ptr<const core::MulticastSchedule>> rel;
    for (std::size_t a = 0; a < paper.size(); ++a) {
      auto hit = cache->get(key_of(shape, static_cast<std::uint8_t>(a)));
      ASSERT_NE(hit, nullptr) << paper[a].name;
      EXPECT_TRUE(*hit == *uncached[a].serve(shape)) << paper[a].name;
      rel.push_back(std::move(hit));
    }
    bool distinct = true;
    for (std::size_t a = 0; a < rel.size(); ++a) {
      for (std::size_t b = a + 1; b < rel.size(); ++b) {
        EXPECT_NE(rel[a], rel[b]);
        distinct = distinct && !(*rel[a] == *rel[b]);
      }
    }
    all_distinct += distinct ? 1 : 0;
  }
  // A shape whose four trees differ is what makes a collision visible.
  EXPECT_GT(all_distinct, 0);
  const ScheduleCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries,
            shapes.size() * paper.size() * (1 + std::size(kSources)));
}

TEST(ServePipeline, PassThroughAlgorithmsNeverTouchTheCache) {
  // A registered entry is pass-through even when it builds a
  // translation-invariant tree.
  const std::string registered = "pass-through-probe";
  if (std::ranges::none_of(core::registered_algorithms(), [&](const auto& e) {
        return e.name == registered;
      })) {
    core::register_algorithm(core::AlgorithmEntry{
        registered, "probe",
        [](const core::MulticastRequest& r) { return core::ucube(r); }});
  }
  const Topology topo(4, Resolution::HighToLow);
  for (const std::string& name :
       {std::string("sftree"), std::string("separate"), registered}) {
    auto cache = std::make_shared<ScheduleCache>();
    ServePipeline pipeline(name, cache);
    const core::MulticastRequest req{topo, 5, {1, 2, 3}};
    const auto a = pipeline.serve(req);
    const auto b = pipeline.serve(req);
    EXPECT_TRUE(*a == *b) << name;
    EXPECT_TRUE(*a == core::find_algorithm(name).build(req)) << name;
    EXPECT_EQ(cache->stats().lookups(), 0u) << name;
    EXPECT_EQ(cache->stats().entries, 0u) << name;
  }
}

// Faults are values: one cached pipeline served under fault set A, then
// B, then A again returns each set's own repair — no invalidation step,
// and the second A is a cache hit on the first A's entry.
TEST(ServePipeline, FaultSetsServeTheirOwnRepairsABA) {
  const Topology topo(6, Resolution::HighToLow);
  fault::FaultSet a(topo);
  a.fail_link(0, 1);
  fault::FaultSet b(topo);
  b.fail_link(1, 2);
  b.fail_link(3, 0);

  auto cache = std::make_shared<ScheduleCache>();
  const ServePipeline pipeline("wsort", cache);
  const ServePipeline uncached("wsort", nullptr);
  const core::MulticastRequest req{topo, 0, {1, 2, 3, 42, 17}};
  ASSERT_GT(fault::blocked_unicasts(*uncached.serve(req), a), 0u);
  ASSERT_GT(fault::blocked_unicasts(*uncached.serve(req), b), 0u);

  const auto under_a = pipeline.serve(req, a);
  EXPECT_TRUE(*under_a == *uncached.serve(req, a));
  const auto under_b = pipeline.serve(req, b);
  EXPECT_TRUE(*under_b == *uncached.serve(req, b));
  EXPECT_FALSE(*under_a == *under_b);

  const auto hits = cache->stats().total_hits();
  const auto again = pipeline.serve(req, a);
  EXPECT_EQ(again, under_a);  // pointer-shared: A's entry survived B
  EXPECT_EQ(cache->stats().total_hits(), hits + 2);  // base tree + repair
}

TEST(ServePipeline, BatchMatchesSequentialAtAnyThreadCount) {
  const Topology topo(6, Resolution::HighToLow);
  workload::Rng rng(13);
  std::vector<core::MulticastRequest> batch;
  for (int i = 0; i < 60; ++i) {
    batch.push_back(random_request(topo, 1 + rng() % 40, rng));
  }
  ServePipeline uncached("wsort", nullptr);
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (const auto& req : batch) reference.push_back(uncached.serve(req));

  for (const int threads : {1, 2, 4, 8}) {
    auto cache = std::make_shared<ScheduleCache>();
    ServePipeline cached("wsort", cache);
    const auto out = cached.serve_batch(batch, threads);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(*out[i] == *reference[i])
          << "threads=" << threads << " request " << i;
    }
  }
}

TEST(ServePipeline, ThreadedBatchStatsRepeatExactlyUnderEviction) {
  // 400 translations of 16 shapes through a 192 KiB, 4-shard cache on 4
  // threads: the cache evicts throughout, and each shard's entries,
  // evictions and hit counts must still come out the same on every run.
  const Topology topo(8, Resolution::HighToLow);
  workload::Rng rng(0xDE7Eull);
  std::vector<std::vector<NodeId>> shapes;
  for (int s = 0; s < 16; ++s) {
    shapes.push_back(workload::random_destinations(topo, 0, 32, rng));
  }
  std::vector<core::MulticastRequest> batch;
  for (int i = 0; i < 400; ++i) {
    const auto source = static_cast<NodeId>(rng() % topo.num_nodes());
    core::MulticastRequest req{topo, source, {}};
    for (const NodeId d : shapes[i % shapes.size()]) {
      req.destinations.push_back(d ^ source);
    }
    batch.push_back(std::move(req));
  }
  ScheduleCache::Config config;
  config.shards = 4;
  config.max_bytes = 192 << 10;
  for (const char* algo : {"ucube", "maxport", "combine", "wsort"}) {
    const ServePipeline uncached(algo, nullptr);
    std::vector<double> first;
    for (int run = 0; run < 6; ++run) {
      auto cache = std::make_shared<ScheduleCache>(config);
      const ServePipeline pipeline(algo, cache);
      const auto out = pipeline.serve_batch(batch, 4);
      for (std::size_t i = 0; i < batch.size(); i += 37) {
        ASSERT_TRUE(*out[i] == *uncached.serve(batch[i]))
            << algo << " request " << i;
      }
      const ScheduleCache::Stats stats = cache->stats();
      ASSERT_GT(stats.evictions, 0u) << algo;
      std::vector<double> fields;
      std::vector<std::string> names;
      stats.for_each_field([&](const char* name, double value) {
        names.push_back(name);
        fields.push_back(value);
      });
      if (run == 0) {
        first = fields;
        continue;
      }
      for (std::size_t f = 0; f < fields.size(); ++f) {
        EXPECT_EQ(fields[f], first[f])
            << algo << " run " << run << " field " << names[f];
      }
    }
  }
}

TEST(ServePipeline, BatchPropagatesExceptions) {
  const Topology topo(4, Resolution::HighToLow);
  std::vector<core::MulticastRequest> batch;
  batch.push_back({topo, 0, {1, 2}});
  batch.push_back({topo, 0, {3, 3}});  // duplicate destination
  auto cache = std::make_shared<ScheduleCache>();
  ServePipeline pipeline("wsort", cache);
  EXPECT_THROW(pipeline.serve_batch(batch, 2), std::invalid_argument);
}

// ---- translation-walk probe order ---------------------------------------

/// Runs `serve` cold, twice more, then `serve_moved` (a new translation
/// of the same shape), checking each step's per-level stats deltas. A
/// translated request probes its absolute key, then the relative one;
/// misses build the relative tree and publish the translation; repeats
/// hit the absolute level (shared tier first, then the thread-local L1);
/// a new translation misses only its absolute key. `walks` is how many
/// cached trees one call serves (the expected deltas scale by it).
template <typename Serve, typename ServeMoved>
void expect_walk_deltas(const ScheduleCache& cache, std::uint64_t walks,
                        Serve serve, ServeMoved serve_moved) {
  struct Step {
    const char* name;
    std::uint64_t hits, l1_hits, misses, entries;
  };
  const auto check = [&](const Step& want, const auto& fn) {
    const auto before = cache.stats();
    fn();
    const auto after = cache.stats();
    EXPECT_EQ(after.hits - before.hits, want.hits * walks) << want.name;
    EXPECT_EQ(after.l1_hits - before.l1_hits, want.l1_hits * walks)
        << want.name;
    EXPECT_EQ(after.misses - before.misses, want.misses * walks) << want.name;
    EXPECT_EQ(after.entries - before.entries, want.entries * walks)
        << want.name;
  };
  check({"cold: absolute + relative miss", 0, 0, 2, 2}, serve);
  check({"repeat: shared-tier absolute hit", 1, 0, 0, 0}, serve);
  check({"repeat: L1 absolute hit", 0, 1, 0, 0}, serve);
  check({"new translation: absolute miss, relative hit", 1, 0, 1, 1},
        serve_moved);
}

core::MulticastRequest translated_to(const core::MulticastRequest& req,
                                     NodeId source) {
  core::MulticastRequest out{req.topo, source, {}};
  for (const NodeId d : req.destinations) {
    out.destinations.push_back(d ^ req.source ^ source);
  }
  return out;
}

TEST(TranslationWalk, PipelineProbesAbsoluteThenRelative) {
  const Topology topo(6, Resolution::HighToLow);
  auto cache = std::make_shared<ScheduleCache>();
  const ServePipeline pipeline("maxport", cache);
  const core::MulticastRequest req{topo, 5, {1, 2, 3, 42, 17}};
  const auto moved = translated_to(req, 9);
  expect_walk_deltas(*cache, 1, [&] { pipeline.serve(req); },
                     [&] { pipeline.serve(moved); });
}

TEST(TranslationWalk, IstTreesProbeAbsoluteThenRelative) {
  const Topology topo(5, Resolution::HighToLow);
  auto cache = std::make_shared<ScheduleCache>();
  const coll::StripedPlanner planner({}, cache);
  const core::MulticastRequest req{topo, 19, {1, 2, 3, 12, 30, 7}};
  const auto moved = translated_to(req, 6);
  // One walk per IST tree: a 5-cube plan serves five.
  expect_walk_deltas(*cache, 5, [&] { planner.plan(req, 1 << 20); },
                     [&] { planner.plan(moved, 1 << 20); });
}

// ---- concurrency hammer --------------------------------------------------

TEST(ScheduleCacheConcurrency, HammerMixedHitMissInvalidateStaysBitIdentical) {
  const Topology topo(6, Resolution::HighToLow);
  ScheduleCache::Config config;
  config.shards = 4;
  config.max_bytes = std::size_t{1} << 20;  // small enough to force
                                            // evictions mid-hammer
  auto cache = std::make_shared<ScheduleCache>(config);
  ServePipeline cached("wsort", cache);
  ServePipeline uncached("wsort", nullptr);

  // A fixed pool of requests with precomputed uncached references.
  workload::Rng rng(99);
  std::vector<core::MulticastRequest> pool;
  std::vector<std::shared_ptr<const core::MulticastSchedule>> reference;
  for (int i = 0; i < 48; ++i) {
    pool.push_back(random_request(topo, 1 + rng() % 40, rng));
    reference.push_back(uncached.serve(pool.back()));
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      workload::Rng local(1000 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::size_t pick = local() % pool.size();
        const auto served = cached.serve(pool[pick]);
        if (!(*served == *reference[pick])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (t == 0 && i % 100 == 50) cache->clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = cache->stats();
  EXPECT_EQ(stats.lookups(), stats.total_hits() + stats.misses);
  EXPECT_GT(stats.total_hits(), 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace hypercast
