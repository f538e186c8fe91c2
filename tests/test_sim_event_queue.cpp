#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace hypercast::sim {
namespace {

/// A queue with one registered handler that runs `fire(arg)`, so each
/// test writes its event bodies inline.
struct Harness {
  EventQueue q;
  std::function<void(std::uint32_t)> fire;
  std::uint16_t kind = q.register_handler(
      [](void* ctx, std::uint32_t arg) {
        static_cast<Harness*>(ctx)->fire(arg);
      },
      this);
};

TEST(EventQueue, FiresInTimeOrder) {
  Harness h;
  std::vector<std::uint32_t> order;
  h.fire = [&](std::uint32_t arg) { order.push_back(arg); };
  h.q.schedule(30, h.kind, 3);
  h.q.schedule(10, h.kind, 1);
  h.q.schedule(20, h.kind, 2);
  h.q.run_to_completion();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(h.q.events_processed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  Harness h;
  std::vector<std::uint32_t> order;
  h.fire = [&](std::uint32_t arg) { order.push_back(arg); };
  for (std::uint32_t i = 0; i < 10; ++i) h.q.schedule(42, h.kind, i);
  h.q.run_to_completion();
  ASSERT_EQ(order.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowTracksCurrentEvent) {
  Harness h;
  SimTime seen = -1;
  h.fire = [&](std::uint32_t) { seen = h.q.now(); };
  h.q.schedule(100, h.kind, 0);
  h.q.run_to_completion();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(h.q.now(), 100);
}

TEST(EventQueue, ScheduleInIsRelative) {
  Harness h;
  SimTime second = -1;
  h.fire = [&](std::uint32_t arg) {
    if (arg == 0) {
      h.q.schedule_in(25, h.kind, 1);
    } else {
      second = h.q.now();
    }
  };
  h.q.schedule(50, h.kind, 0);
  h.q.run_to_completion();
  EXPECT_EQ(second, 75);
}

TEST(EventQueue, EventsMayScheduleAtCurrentTime) {
  Harness h;
  int fired = 0;
  h.fire = [&](std::uint32_t arg) {
    if (arg == 0) {
      h.q.schedule_in(0, h.kind, 1);
    } else {
      ++fired;
    }
  };
  h.q.schedule(10, h.kind, 0);
  h.q.run_to_completion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(h.q.now(), 10);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BudgetGuardThrows) {
  // A self-perpetuating event chain must hit the budget.
  Harness h;
  h.fire = [&](std::uint32_t) { h.q.schedule_in(1, h.kind, 0); };
  h.q.schedule(0, h.kind, 0);
  EXPECT_THROW(h.q.run_to_completion(1000), std::runtime_error);
}

TEST(EventQueue, BudgetIsHonoredExactly) {
  // The guard fires after exactly max_events events — not one more.
  Harness h;
  std::uint64_t fired = 0;
  h.fire = [&](std::uint32_t) {
    ++fired;
    h.q.schedule_in(1, h.kind, 0);
  };
  h.q.schedule(0, h.kind, 0);
  EXPECT_THROW(h.q.run_to_completion(100), std::runtime_error);
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(h.q.events_processed(), 100u);
}

TEST(EventQueue, QueueWithExactlyBudgetEventsCompletes) {
  Harness h;
  int fired = 0;
  h.fire = [&](std::uint32_t) { ++fired; };
  for (int i = 0; i < 10; ++i) h.q.schedule(i, h.kind, 0);
  EXPECT_NO_THROW(h.q.run_to_completion(10));
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  // Time only moves forward; a past event is a programming error in
  // every build type, not just under assertions.
  Harness h;
  bool threw = false;
  h.fire = [&](std::uint32_t) {
    try {
      h.q.schedule(5, h.kind, 0);
    } catch (const std::logic_error&) {
      threw = true;
    }
  };
  h.q.schedule(10, h.kind, 0);
  h.q.run_to_completion();
  EXPECT_TRUE(threw);
  EXPECT_EQ(h.q.now(), 10);
  EXPECT_EQ(h.q.events_processed(), 1u);
}

TEST(EventQueue, NegativeRelativeDelayThrows) {
  Harness h;
  bool threw = false;
  h.fire = [&](std::uint32_t) {
    try {
      h.q.schedule_in(-1, h.kind, 0);
    } catch (const std::logic_error&) {
      threw = true;
    }
  };
  h.q.schedule(10, h.kind, 0);
  h.q.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST(EventQueue, RecoversAfterRejectedSchedule) {
  // A rejected past-schedule must not corrupt the queue: later valid
  // events still fire in order.
  Harness h;
  std::vector<std::uint32_t> order;
  h.fire = [&](std::uint32_t arg) {
    order.push_back(arg);
    if (arg == 1) {
      EXPECT_THROW(h.q.schedule(5, h.kind, 9), std::logic_error);
      h.q.schedule_in(5, h.kind, 2);
    }
  };
  h.q.schedule(10, h.kind, 1);
  h.q.run_to_completion();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2}));
}

TEST(EventQueue, InterleavedSchedulingKeepsDeterminism) {
  // Two runs with identical schedules produce identical firing orders.
  const auto run = [] {
    Harness h;
    std::vector<std::uint32_t> order;
    h.fire = [&](std::uint32_t arg) {
      order.push_back(arg);
      if (arg == 0) {
        h.q.schedule_in(5, h.kind, 2);
        h.q.schedule_in(5, h.kind, 3);
      }
    };
    h.q.schedule(5, h.kind, 0);
    h.q.schedule(10, h.kind, 1);
    h.q.run_to_completion();
    return order;
  };
  EXPECT_EQ(run(), run());
  // Insertion order is global: the external t=10 event was inserted
  // before the two chained ones, so it fires first among them.
  EXPECT_EQ(run(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventQueue, ReserveDoesNotDisturbOrderOrCounts) {
  Harness h;
  h.q.reserve(1024);
  std::vector<std::uint32_t> order;
  h.fire = [&](std::uint32_t arg) { order.push_back(arg); };
  h.q.schedule(30, h.kind, 3);
  h.q.schedule(10, h.kind, 1);
  h.q.reserve(4096);  // reserving mid-stream is allowed too
  h.q.schedule(20, h.kind, 2);
  h.q.run_to_completion();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(h.q.events_processed(), 3u);
  EXPECT_GE(h.q.memory_bytes(), 4096 * 24u);
}

TEST(EventQueue, HandlerKindsInterleaveInGlobalOrder) {
  // Every kind shares one (time, seq) order: the insertion sequence
  // across kinds decides same-time ties, and each ticket reaches its
  // own kind's handler and context.
  EventQueue q;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int sign;
  } plus{&order, 1}, minus{&order, -1};
  const auto record = [](void* c, std::uint32_t arg) {
    const Ctx* x = static_cast<const Ctx*>(c);
    x->order->push_back(x->sign * static_cast<int>(arg));
  };
  const std::uint16_t kp = q.register_handler(record, &plus);
  const std::uint16_t km = q.register_handler(record, &minus);
  EXPECT_NE(kp, km);
  q.schedule(50, km, 1);
  q.schedule(50, kp, 100);
  q.schedule(50, km, 2);
  q.schedule(40, kp, 99);
  q.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{99, -1, 100, -2}));
  EXPECT_EQ(q.events_processed(), 4u);
}

TEST(EventQueue, HandlerSelfReschedulingChain) {
  EventQueue q;
  struct Ctx {
    EventQueue* q;
    std::uint16_t kind = 0;
    int fired = 0;
  } ctx{&q};
  ctx.kind = q.register_handler(
      [](void* c, std::uint32_t remaining) {
        Ctx* x = static_cast<Ctx*>(c);
        ++x->fired;
        if (remaining > 0) x->q->schedule_in(7, x->kind, remaining - 1);
      },
      &ctx);
  q.schedule(0, ctx.kind, 9999);
  q.run_to_completion();
  EXPECT_EQ(ctx.fired, 10000);
  EXPECT_EQ(q.now(), 9999 * 7);
}

}  // namespace
}  // namespace hypercast::sim
