// Microbenchmark: event-queue churn — schedule + dispatch cost of the
// calendar queue (24-byte POD tickets through one registered handler,
// no per-event allocation), isolated from the network model.
// Interleaved self-rescheduling chains keep the queue at a realistic
// working size.

#include <cstdio>

#include "harness/bench.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace hypercast;

void run(const bench::Context& ctx, bench::Report& report) {
  const std::size_t chains = 64;
  const std::uint64_t hops = ctx.quick ? 2'000 : 20'000;
  const std::uint64_t events_per_iter = chains * (hops + 1);

  // A queue with one handler: a hop whose arg is the hops left
  // reschedules itself 1 ns later.
  struct Chains {
    sim::EventQueue queue;
    std::uint16_t hop = queue.register_handler(
        [](void* c, std::uint32_t left) {
          Chains* self = static_cast<Chains*>(c);
          if (left > 0) self->queue.schedule_in(1, self->hop, left - 1);
        },
        this);
  };

  const bench::Rate rate = bench::measure_rate(ctx.min_time(0.5), [&] {
    Chains run;
    for (std::size_t c = 0; c < chains; ++c) {
      run.queue.schedule_in(1, run.hop, static_cast<std::uint32_t>(hops));
    }
    run.queue.run_to_completion(events_per_iter);
  });
  const double events_per_sec =
      rate.per_second() * static_cast<double>(events_per_iter);
  report.metric("chains", static_cast<double>(chains));
  report.metric("events_per_iter", static_cast<double>(events_per_iter));
  report.metric("events_per_sec", events_per_sec);
  std::printf("  %zu chains x %llu hops: %12.3e events/s\n", chains,
              static_cast<unsigned long long>(hops), events_per_sec);
}

const bench::Registration reg{
    {"micro_event_queue", bench::Kind::Micro,
     "event-queue schedule+dispatch throughput (64 interleaved chains "
     "through one registered handler)",
     run}};

}  // namespace
