// Scheduler equivalence: the calendar-queue EventQueue must produce
// bit-identical pop order to a reference binary heap with the same
// (time, insertion-seq) contract, over randomized self-expanding
// workloads — including dense same-timestamp bursts and far-future
// inserts that stress the overflow ladder.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace hypercast::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Flavors steer the offset mix toward a pathology.
enum class Flavor { Mixed, DenseBursts, FarFuture };

/// The workload is defined purely by (seed, flavor): event `id`, when
/// it fires, spawns children at these offsets. Both queues replay the
/// identical branching process, so any divergence is a scheduler bug.
std::vector<SimTime> child_offsets(std::uint64_t seed, std::uint32_t id,
                                   Flavor flavor) {
  const std::uint64_t h = splitmix64(seed ^ (0x51ed2701ULL + id));
  std::vector<SimTime> offsets;
  const int k = static_cast<int>(h % 3);  // 0..2 children
  for (int j = 0; j < k; ++j) {
    const std::uint64_t hj = splitmix64(h + static_cast<std::uint64_t>(j));
    SimTime d;
    switch (flavor) {
      case Flavor::DenseBursts:
        // Mostly zero-delay: giant same-timestamp cohorts that must
        // still fire in exact insertion order.
        d = (hj % 8 == 0) ? static_cast<SimTime>(hj % 5) : 0;
        break;
      case Flavor::FarFuture:
        // Mostly beyond any calendar window horizon.
        d = (hj % 4 == 0) ? static_cast<SimTime>(hj % 1000)
                          : static_cast<SimTime>(1'000'000'000) +
                                static_cast<SimTime>(hj % 1'000'000'000);
        break;
      case Flavor::Mixed:
      default:
        switch (hj % 5) {
          case 0: d = 0; break;
          case 1: d = static_cast<SimTime>(hj % 7); break;
          case 2: d = static_cast<SimTime>(hj % 1000); break;
          case 3: d = static_cast<SimTime>(hj % 100'000); break;
          default: d = static_cast<SimTime>(hj % 2'000'000'000); break;
        }
        break;
    }
    offsets.push_back(d);
  }
  return offsets;
}

std::vector<SimTime> seed_times(std::uint64_t seed, Flavor flavor,
                                std::size_t count) {
  std::vector<SimTime> times;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t h = splitmix64(seed ^ (0xabcdULL + i));
    times.push_back(flavor == Flavor::DenseBursts
                        ? static_cast<SimTime>(h % 3)
                        : static_cast<SimTime>(h % 10'000));
  }
  return times;
}

struct Fired {
  SimTime at;
  std::uint32_t id;
  bool operator==(const Fired&) const = default;
};

/// Reference model: the exact pre-calendar scheduler — a binary heap of
/// (at, seq) with FIFO tie-break — driven through the same branching
/// process without callbacks.
std::vector<Fired> run_reference(std::uint64_t seed, Flavor flavor,
                                 std::size_t max_events) {
  struct T {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t id;
  };
  struct Later {
    bool operator()(const T& a, const T& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<T, std::vector<T>, Later> heap;
  std::uint64_t seq = 0;
  std::uint32_t next_id = 0;
  for (const SimTime t : seed_times(seed, flavor, 16)) {
    heap.push(T{t, seq++, next_id++});
  }
  std::vector<Fired> fired;
  while (!heap.empty() && fired.size() < max_events) {
    const T top = heap.top();
    heap.pop();
    fired.push_back(Fired{top.at, top.id});
    if (next_id < max_events) {
      for (const SimTime d : child_offsets(seed, top.id, flavor)) {
        if (next_id >= max_events) break;
        heap.push(T{top.at + d, seq++, next_id++});
      }
    }
  }
  return fired;
}

/// Real run: the calendar queue, spawning every third event through a
/// second handler kind so the shared (time, seq) ordering across kinds
/// is exercised too.
std::vector<Fired> run_calendar(std::uint64_t seed, Flavor flavor,
                                std::size_t max_events,
                                std::size_t reserve = 0) {
  EventQueue q;
  if (reserve != 0) q.reserve(reserve);
  struct Ctx {
    EventQueue* q;
    std::uint64_t seed;
    Flavor flavor;
    std::size_t max_events;
    std::uint16_t kind = 0;
    std::uint16_t third_kind = 0;
    std::uint32_t next_id = 0;
    std::vector<Fired> fired;

    void spawn(SimTime at, std::uint32_t id) {
      q->schedule(at, id % 3 == 0 ? third_kind : kind, id);
    }
    void fire(std::uint32_t id) {
      fired.push_back(Fired{q->now(), id});
      if (next_id < max_events) {
        for (const SimTime d : child_offsets(seed, id, flavor)) {
          if (next_id >= max_events) break;
          spawn(q->now() + d, next_id++);
        }
      }
    }
  };
  Ctx ctx;
  ctx.q = &q;
  ctx.seed = seed;
  ctx.flavor = flavor;
  ctx.max_events = max_events;
  const EventQueue::Handler fire = [](void* c, std::uint32_t id) {
    static_cast<Ctx*>(c)->fire(id);
  };
  ctx.kind = q.register_handler(fire, &ctx);
  ctx.third_kind = q.register_handler(fire, &ctx);
  for (const SimTime t : seed_times(seed, flavor, 16)) {
    ctx.spawn(t, ctx.next_id++);
  }
  while (ctx.fired.size() < max_events && q.run_next()) {
  }
  return ctx.fired;
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, MixedWorkloadPopOrderBitIdentical) {
  const auto ref = run_reference(GetParam(), Flavor::Mixed, 20'000);
  const auto cal = run_calendar(GetParam(), Flavor::Mixed, 20'000);
  ASSERT_EQ(ref.size(), cal.size());
  EXPECT_EQ(ref, cal);
}

TEST_P(SchedulerEquivalence, DenseSameTimestampBurstsKeepFifo) {
  const auto ref = run_reference(GetParam(), Flavor::DenseBursts, 20'000);
  const auto cal = run_calendar(GetParam(), Flavor::DenseBursts, 20'000);
  EXPECT_EQ(ref, cal);
}

TEST_P(SchedulerEquivalence, FarFutureInsertsSpillAndReturnInOrder) {
  const auto ref = run_reference(GetParam(), Flavor::FarFuture, 20'000);
  const auto cal = run_calendar(GetParam(), Flavor::FarFuture, 20'000);
  EXPECT_EQ(ref, cal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 0xdeadbeefu));

TEST(SchedulerEquivalence, ReserveDoesNotChangeOrder) {
  // reserve() must be order-neutral: the reserved run matches both the
  // unreserved run and the reference heap.
  const auto reserved = run_calendar(99, Flavor::Mixed, 10'000, 100'000);
  EXPECT_EQ(reserved, run_calendar(99, Flavor::Mixed, 10'000));
  EXPECT_EQ(reserved, run_reference(99, Flavor::Mixed, 10'000));
}

}  // namespace
}  // namespace hypercast::sim
