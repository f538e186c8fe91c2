#include "core/registry.hpp"

#include <stdexcept>

#include "core/separate.hpp"
#include "core/sf_tree.hpp"
#include "core/tree_builder.hpp"
#include "core/wsort.hpp"

namespace hypercast::core {

namespace {

// The paper's four algorithms: one loop (Algorithm 1, TreeBuilder) and
// a recipe each.
constexpr Recipe kUcube{NextRule::Center};
constexpr Recipe kMaxport{NextRule::HighDim};
constexpr Recipe kCombine{NextRule::MaxOfBoth};
constexpr Recipe kWsort{NextRule::HighDim, /*weighted_sort=*/true};

const std::vector<AlgorithmEntry>& table() {
  static const std::vector<AlgorithmEntry> entries = {
      {"ucube", "U-cube", ucube, kUcube},
      {"maxport", "Maxport", maxport, kMaxport},
      {"combine", "Combine", combine, kCombine},
      {"wsort", "W-sort", wsort, kWsort},
      {"separate", "Separate", separate_addressing},
      {"sftree", "SF-tree", sf_tree},
  };
  return entries;
}

std::vector<AlgorithmEntry>& registered() {
  static std::vector<AlgorithmEntry> entries;
  return entries;
}

}  // namespace

MulticastSchedule ucube(const MulticastRequest& req) {
  return TreeBuilder::local().build(req, kUcube);
}

MulticastSchedule maxport(const MulticastRequest& req) {
  return TreeBuilder::local().build(req, kMaxport);
}

MulticastSchedule combine(const MulticastRequest& req) {
  return TreeBuilder::local().build(req, kCombine);
}

MulticastSchedule wsort(const MulticastRequest& req) {
  return TreeBuilder::local().build(req, kWsort);
}

std::span<const AlgorithmEntry> paper_algorithms() {
  return std::span<const AlgorithmEntry>(table()).subspan(0, kPaperAlgorithms);
}

std::span<const AlgorithmEntry> all_algorithms() { return table(); }

std::span<const AlgorithmEntry> registered_algorithms() {
  return registered();
}

std::vector<std::string> names_of(std::span<const AlgorithmEntry> entries) {
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const AlgorithmEntry& e : entries) names.push_back(e.name);
  return names;
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names = names_of(table());
  for (const AlgorithmEntry& e : registered()) names.push_back(e.name);
  return names;
}

void register_algorithm(AlgorithmEntry entry) {
  for (const AlgorithmEntry& e : table()) {
    if (e.name == entry.name) {
      throw std::invalid_argument("register_algorithm: '" + entry.name +
                                  "' would shadow a built-in algorithm");
    }
  }
  for (const AlgorithmEntry& e : registered()) {
    if (e.name == entry.name) {
      throw std::invalid_argument("register_algorithm: '" + entry.name +
                                  "' is already registered");
    }
  }
  registered().push_back(std::move(entry));
}

const AlgorithmEntry& find_algorithm(std::string_view name) {
  for (const AlgorithmEntry& e : table()) {
    if (e.name == name) return e;
  }
  for (const AlgorithmEntry& e : registered()) {
    if (e.name == name) return e;
  }
  std::string known;
  for (const std::string& n : algorithm_names()) {
    known += known.empty() ? n : ", " + n;
  }
  throw std::invalid_argument("unknown multicast algorithm: '" +
                              std::string(name) + "' (known: " + known + ")");
}

}  // namespace hypercast::core
