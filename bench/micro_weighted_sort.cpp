// Microbenchmark: core::weighted_sort (the O(m log N) top-down form of
// Figure 7, standing in for the distributed O(m log m) version) on
// 15-cube chains. The paper-literal recursion is the test oracle in
// tests/weighted_sort_oracle.hpp; the "fast/" key prefix is kept so the
// committed baseline keeps gating the same figures.

#include <cstdio>
#include <string>
#include <vector>

#include "core/weighted_sort.hpp"
#include "harness/bench.hpp"
#include "hcube/chain.hpp"
#include "workload/random_sets.hpp"

namespace {

using namespace hypercast;

std::vector<hcube::NodeId> make_chain(const hcube::Topology& topo,
                                      std::size_t m) {
  workload::Rng rng(
      workload::derive_seed(7, m, static_cast<std::uint64_t>(topo.dim())));
  const auto dests = workload::random_destinations(topo, 0, m, rng);
  return hcube::make_relative_chain(topo, 0, dests);
}

void run(const bench::Context& ctx, bench::Report& report) {
  const hcube::Topology topo(15);
  const std::vector<std::size_t> sizes =
      ctx.quick ? std::vector<std::size_t>{256}
                : std::vector<std::size_t>{16, 256, 4096, 16384};
  for (const std::size_t m : sizes) {
    const auto chain = make_chain(topo, m);
    const bench::Rate rate = bench::measure_rate(ctx.min_time(0.2), [&] {
      auto copy = chain;
      core::weighted_sort(topo, copy);
    });
    const std::string key = "fast/" + std::to_string(m);
    report.metric(key + " sorts_per_sec", rate.per_second());
    std::printf("  %-16s %12.1f sorts/s\n", key.c_str(), rate.per_second());
  }
}

const bench::Registration reg{
    {"micro_weighted_sort", bench::Kind::Micro,
     "core::weighted_sort on 15-cube chains", run}};

}  // namespace
