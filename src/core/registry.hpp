#ifndef HYPERCAST_CORE_REGISTRY_HPP
#define HYPERCAST_CORE_REGISTRY_HPP

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/chain_algorithms.hpp"

namespace hypercast::core {

/// A named multicast algorithm, as the harness and benches drive them.
struct AlgorithmEntry {
  std::string name;         ///< e.g. "wsort"
  std::string display;      ///< e.g. "W-sort"
  std::function<MulticastSchedule(const MulticastRequest&)> build;
  /// The Algorithm-1 recipe `build` runs, set on the four paper
  /// algorithms. Their trees are translation-invariant, so
  /// coll::ServePipeline caches them, keyed by their position in
  /// paper_algorithms(). Ignored on registered entries: those are always
  /// served pass-through.
  std::optional<Recipe> recipe = std::nullopt;
};

/// The four algorithms the paper evaluates (Figures 9-14), in the
/// paper's curve order: U-cube, Maxport, Combine, W-sort.
inline constexpr std::size_t kPaperAlgorithms = 4;
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

/// The names of `entries`, in order.
std::vector<std::string> names_of(std::span<const AlgorithmEntry> entries);

/// Every known algorithm name: built-ins first, then registered.
std::vector<std::string> algorithm_names();

}  // namespace hypercast::core

#endif  // HYPERCAST_CORE_REGISTRY_HPP
