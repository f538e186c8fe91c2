#ifndef HYPERCAST_HARNESS_EXPERIMENT_HPP
#define HYPERCAST_HARNESS_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/stepwise.hpp"
#include "metrics/series.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast::harness {

using hcube::Resolution;

/// Common sweep shape: for each destination-set size m, draw
/// `sets_per_point` random destination sets (random source too — the
/// algorithms are XOR-translation equivariant, so this only widens
/// coverage) and run every named algorithm on the same sets.
struct SweepBase {
  hcube::Dim n = 6;
  Resolution resolution = Resolution::HighToLow;
  core::PortModel port = core::PortModel::all_port();
  std::vector<std::size_t> sizes;
  std::size_t sets_per_point = 100;
  std::uint64_t seed = 0x5C93C0DE;  ///< default experiment seed
  std::vector<std::string> algorithms =
      core::names_of(core::paper_algorithms());
  /// Worker threads for the embarrassingly-parallel (m, trial) points.
  /// Results are bit-identical for any thread count: instances derive
  /// their seeds from (seed, m, trial) and samples are merged in sweep
  /// order. Callers must not mutate the algorithm registry concurrently.
  int threads = 1;
};

/// Section 5.1's metric: the number of steps needed to reach the last
/// destination, under the stepwise model of core::assign_steps.
struct StepSweepConfig : SweepBase {
  std::string title = "stepwise comparison";
};

metrics::Series run_step_sweep(const StepSweepConfig& config);

/// Sections 5.2/5.3's metric: per-destination delay of a 4096-byte
/// multicast through the wormhole DES, reported as the average and the
/// maximum over destinations (in microseconds).
struct DelaySweepConfig : SweepBase {
  sim::CostModel cost = sim::CostModel::ncube2();
  std::size_t message_bytes = 4096;
  std::string title = "delay comparison";
};

struct DelaySweepResult {
  metrics::Series avg;  ///< mean-over-destinations, averaged across sets
  metrics::Series max;  ///< max-over-destinations, averaged across sets
  std::uint64_t blocked_acquisitions = 0;  ///< summed over all runs
  std::uint64_t events = 0;                ///< DES events, summed over all runs
};

DelaySweepResult run_delay_sweep(const DelaySweepConfig& config);

/// Helper: {from, from+step, ..., <= to} (inclusive when it lands on it).
std::vector<std::size_t> size_range(std::size_t from, std::size_t to,
                                    std::size_t step);

}  // namespace hypercast::harness

#endif  // HYPERCAST_HARNESS_EXPERIMENT_HPP
