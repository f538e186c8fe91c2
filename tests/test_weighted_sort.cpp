#include "core/weighted_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.hpp"
#include "weighted_sort_oracle.hpp"

namespace hypercast::core {
namespace {

using namespace testutil;

/// Runs `chain` through both core::weighted_sort and the Figure-7
/// oracle; returns {core, oracle}.
std::pair<std::vector<NodeId>, std::vector<NodeId>> sort_both(
    const Topology& topo, const std::vector<NodeId>& chain) {
  auto sorted = chain;
  weighted_sort(topo, sorted);
  auto oracle = chain;
  weighted_sort_oracle(topo, oracle);
  return {sorted, oracle};
}

TEST(WeightedSort, PaperFigure8Example) {
  // D = {0, 1, 3, 5, 7, 11, 12, 14, 15} becomes
  // {0, 1, 3, 5, 7, 14, 15, 12, 11}: subcube {11,12,14,15} swaps its
  // halves ({11} vs {12,14,15}), and then {12} vs {14,15} swap too.
  const Topology topo(4, Resolution::HighToLow);
  const std::vector<NodeId> chain{0, 1, 3, 5, 7, 11, 12, 14, 15};
  const std::vector<NodeId> expected{0, 1, 3, 5, 7, 14, 15, 12, 11};

  const auto [sorted, oracle] = sort_both(topo, chain);
  EXPECT_EQ(sorted, expected);
  EXPECT_EQ(oracle, expected);
}

TEST(WeightedSort, KeepsSourceFirstEvenWhenItsHalfIsSmaller) {
  // Source 0 alone in the lower half vs seven nodes in the upper half:
  // the first != 0 guard must keep 0 at position 0 (Theorem 5, item 3).
  const Topology topo(4, Resolution::HighToLow);
  const auto [sorted, oracle] =
      sort_both(topo, {0, 8, 9, 10, 11, 12, 13, 14});
  EXPECT_EQ(sorted.front(), 0u);
  EXPECT_EQ(oracle.front(), 0u);
}

TEST(WeightedSort, MoreCrowdedHalfComesFirstBelowTheSource) {
  // Inside the non-source subcube the crowded half must lead. With
  // destinations {8, 12, 13, 14, 15}: subcube (3,1) splits into
  // {8} and {12,13,14,15}, so the upper half leads after sorting.
  const Topology topo(4, Resolution::HighToLow);
  const auto [sorted, oracle] = sort_both(topo, {0, 8, 12, 13, 14, 15});
  const std::vector<NodeId> expected{0, 12, 13, 14, 15, 8};
  EXPECT_EQ(sorted, expected);
  EXPECT_EQ(oracle, expected);
}

class WeightedSortProperty
    : public ::testing::TestWithParam<std::tuple<hcube::Dim, Resolution>> {
 protected:
  Topology topo() const {
    return Topology(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
};

/// Theorem 5: the output is a cube-ordered permutation of the input
/// with the source still in first position.
TEST_P(WeightedSortProperty, TheoremFive) {
  const Topology topo = this->topo();
  workload::Rng rng(401);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 50);
    const auto req = random_request(topo, m, rng);
    const auto input =
        hcube::make_relative_chain(topo, req.source, req.destinations);
    auto output = input;
    weighted_sort(topo, output);

    EXPECT_EQ(output.front(), req.source);
    EXPECT_TRUE(hcube::is_cube_ordered(topo, output))
        << "not cube ordered (m=" << m << ")";
    auto a = input;
    auto b = output;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "not a permutation";
  }
}

/// The O(m log N) top-down implementation is output-identical to the
/// faithful recursion from Figure 7.
TEST_P(WeightedSortProperty, FastMatchesFaithful) {
  const Topology topo = this->topo();
  workload::Rng rng(409);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 50);
    const auto req = random_request(topo, m, rng);
    const auto [sorted, oracle] = sort_both(
        topo, hcube::make_relative_chain(topo, req.source, req.destinations));
    EXPECT_EQ(sorted, oracle) << "m=" << m;
  }
}

/// For every subcube S (in relative-key space) not containing the
/// source, with both halves populated: the first chain element of S
/// must come from the more (or equally) crowded half.
void expect_crowded_half_leads(const Topology& topo, NodeId source,
                               const std::vector<NodeId>& chain,
                               const char* which) {
  std::vector<std::uint32_t> rel;
  for (const NodeId u : chain) {
    rel.push_back(hcube::relative_key(topo, source, u));
  }
  for (hcube::Dim ns = 1; ns <= topo.dim(); ++ns) {
    for (std::uint32_t mask = 0; mask < (1u << (topo.dim() - ns)); ++mask) {
      if (mask == 0) {
        // Subcubes with mask 0 contain relative key 0 == the source;
        // the pin suppresses their swap, so skip them.
        continue;
      }
      std::size_t lo = 0;
      std::size_t hi = 0;
      std::size_t first_index = chain.size();
      bool first_in_hi = false;
      for (std::size_t i = 0; i < rel.size(); ++i) {
        if ((rel[i] >> ns) != mask) continue;
        const bool in_hi = hcube::test_bit(rel[i], ns - 1);
        if (first_index == chain.size()) {
          first_index = i;
          first_in_hi = in_hi;
        }
        (in_hi ? hi : lo)++;
      }
      if (lo == 0 || hi == 0) continue;
      if (first_in_hi) {
        EXPECT_GE(hi, lo) << which << " ns=" << ns << " mask=" << mask;
      } else {
        EXPECT_GE(lo, hi) << which << " ns=" << ns << " mask=" << mask;
      }
    }
  }
}

/// Every subcube's more crowded half precedes the less crowded one
/// (except across the source's pinned position), in the outputs of both
/// core::weighted_sort and the oracle.
TEST_P(WeightedSortProperty, CrowdedHalfLeads) {
  const Topology topo = this->topo();
  workload::Rng rng(419);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m =
        2 + rng() % std::min<std::size_t>(topo.num_nodes() - 2, 40);
    const auto req = random_request(topo, m, rng);
    const auto [sorted, oracle] = sort_both(
        topo, hcube::make_relative_chain(topo, req.source, req.destinations));
    expect_crowded_half_leads(topo, req.source, sorted, "core");
    expect_crowded_half_leads(topo, req.source, oracle, "oracle");
  }
}

TEST_P(WeightedSortProperty, IdempotentOnItsOwnOutput) {
  // Re-sorting a weighted chain must not change it (the crowded-first
  // arrangement is a fixed point). weighted_sort expects an ascending
  // chain, so verify via re-sorting instead: applying it twice to the
  // same ascending chain reproduces the output.
  const Topology topo = this->topo();
  workload::Rng rng(421);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m =
        1 + rng() % std::min<std::size_t>(topo.num_nodes() - 1, 30);
    const auto req = random_request(topo, m, rng);
    auto once = hcube::make_relative_chain(topo, req.source, req.destinations);
    weighted_sort(topo, once);
    auto again = hcube::make_relative_chain(topo, req.source, req.destinations);
    weighted_sort(topo, again);
    EXPECT_EQ(once, again);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cubes, WeightedSortProperty,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8, 10),
                       ::testing::Values(Resolution::HighToLow,
                                         Resolution::LowToHigh)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Resolution::HighToLow ? "_HighToLow"
                                                               : "_LowToHigh");
    });

TEST(WeightedSort, TinyChainsAreUntouched) {
  const Topology topo(4);
  std::vector<NodeId> empty;
  weighted_sort(topo, empty);
  EXPECT_TRUE(empty.empty());
  std::vector<NodeId> one{5};
  weighted_sort(topo, one);
  EXPECT_EQ(one, (std::vector<NodeId>{5}));
  std::vector<NodeId> two{5, 7};
  weighted_sort(topo, two);
  EXPECT_EQ(two, (std::vector<NodeId>{5, 7}));
}

/// Every destination subset of a 4-cube from source 0 (2^15 chains),
/// under both resolution orders: core::weighted_sort equals the oracle.
TEST(WeightedSort, MatchesOracleOnEveryFourCubeSubset) {
  for (const Resolution res : {Resolution::HighToLow, Resolution::LowToHigh}) {
    const Topology topo(4, res);
    std::vector<NodeId> dests;
    for (std::uint32_t mask = 0; mask < (1u << 15); ++mask) {
      dests.clear();
      for (NodeId d = 1; d < 16; ++d) {
        if (mask & (1u << (d - 1))) dests.push_back(d);
      }
      const auto [sorted, oracle] =
          sort_both(topo, hcube::make_relative_chain(topo, 0, dests));
      ASSERT_EQ(sorted, oracle)
          << "mask=" << mask << " res=" << static_cast<int>(res);
    }
  }
}

}  // namespace
}  // namespace hypercast::core
