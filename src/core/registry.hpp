#ifndef HYPERCAST_CORE_REGISTRY_HPP
#define HYPERCAST_CORE_REGISTRY_HPP

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/multicast.hpp"

namespace hypercast::core {

/// A named multicast algorithm, as the harness and benches drive them.
struct AlgorithmEntry {
  std::string name;         ///< e.g. "wsort"
  std::string display;      ///< e.g. "W-sort"
  std::function<MulticastSchedule(const MulticastRequest&)> build;
};

/// The four algorithms the paper evaluates (Figures 9-14), in the
/// paper's curve order: U-cube, Maxport, Combine, W-sort.
std::span<const AlgorithmEntry> paper_algorithms();

/// Paper algorithms plus the baselines (separate addressing and the
/// store-and-forward tree).
std::span<const AlgorithmEntry> all_algorithms();

/// Lookup by name (built-in or registered); throws
/// std::invalid_argument listing every known name for unknown ones, so
/// CLI typos are self-diagnosing.
const AlgorithmEntry& find_algorithm(std::string_view name);

/// Register an additional algorithm under its entry's name. Names are
/// unique: a built-in or already registered name throws
/// std::invalid_argument (an entry is never replaced, so a pipeline that
/// resolved it keeps building through exactly what it resolved). The
/// entry becomes visible to find_algorithm and registered_algorithms.
void register_algorithm(AlgorithmEntry entry);

/// The dynamically registered entries, in registration order.
std::span<const AlgorithmEntry> registered_algorithms();

/// Every known algorithm name: built-ins first, then registered.
std::vector<std::string> algorithm_names();

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_REGISTRY_HPP
