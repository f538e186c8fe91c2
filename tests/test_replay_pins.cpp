// Fixed-number pins for the event-driven engines built directly on
// sim::EventQueue (multicast, flit replay, scatter, reduce, all-to-all):
// the exact event
// count and every delivery or finish time of one fixed case each. The
// DeterministicReplay tests only compare a run with itself; these catch
// any change to when an engine schedules its events, since that moves
// the (time, seq) order, the event count or a delivery time.

#include <gtest/gtest.h>

#include <map>

#include "coll/all_to_all.hpp"
#include "coll/reduce.hpp"
#include "coll/scatter.hpp"
#include "core/chain_algorithms.hpp"
#include "core/wsort.hpp"
#include "sim/flit_sim.hpp"
#include "sim/wormhole_sim.hpp"

namespace hypercast {
namespace {

using hcube::NodeId;
using hcube::Topology;
using sim::SimTime;
using Times = std::map<NodeId, SimTime>;

template <typename Map>
Times sorted(const Map& m) {
  return Times(m.begin(), m.end());
}

/// Two multicasts sharing a one-port 4-cube: channels, ports and the
/// CPUs of the nodes both jobs use (the second job starts 50 us later).
TEST(ReplayPins, MulticastTwoJobsOnePort) {
  const Topology topo(4);
  const auto a = core::ucube(core::MulticastRequest{
      topo, 0, {1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}});
  const auto b =
      core::wsort(core::MulticastRequest{topo, 5, {0, 3, 6, 9, 12, 15}});
  const sim::CollectiveJob jobs[] = {{&a, 0, 0},
                                     {&b, sim::microseconds(50), 0}};
  sim::SimConfig config;
  config.port = core::PortModel::one_port();
  config.message_bytes = 1024;
  const sim::MultiSimResult r = sim::simulate_collectives(jobs, config);
  EXPECT_EQ(r.stats.events, 102u);
  EXPECT_EQ(r.stats.messages, 19u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 11u);
  EXPECT_EQ(r.stats.total_blocked_ns, 4314000);
  EXPECT_EQ(sorted(r.per_job[0].delivery),
            (Times{{1, 1632400},  {2, 2337200},  {3, 1169600},
                   {5, 2612000},  {6, 2147200},  {7, 2850000},
                   {9, 704800},   {10, 1874400}, {11, 2577200},
                   {12, 1409600}, {13, 2850000}, {14, 2387200},
                   {15, 3090000}}));
  EXPECT_EQ(sorted(r.per_job[1].delivery),
            (Times{{0, 1219600}, {3, 2097200},  {6, 1684400},
                   {9, 1459600}, {12, 754800},  {15, 1924400}}));
}

/// U-cube to 13 of a 4-cube's nodes, 4 KiB in 512-byte flits.
sim::FlitResult flit_replay(core::PortModel port) {
  const Topology topo(4);
  const core::MulticastRequest req{
      topo, 0, {1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}};
  sim::FlitConfig config;
  config.port = port;
  config.message_bytes = 4096;
  config.flit_bytes = 512;
  return sim::simulate_multicast_flit(core::ucube(req), config);
}

TEST(ReplayPins, FlitOnePortInjectionContention) {
  const sim::FlitResult r = flit_replay(core::PortModel::one_port());
  EXPECT_EQ(r.stats.events, 211u);
  EXPECT_EQ(r.stats.messages, 13u);
  EXPECT_EQ(r.stats.flit_transfers, 180u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 5u);
  EXPECT_EQ(r.stats.total_blocked_ns, 11503600);
  EXPECT_EQ(sorted(r.delivery),
            (Times{{1, 6470800},  {2, 9018800},  {3, 4625600},
                   {5, 9251200},  {6, 7173600},  {7, 9489200},
                   {9, 2548000},  {10, 7173600}, {11, 9489200},
                   {12, 5096000}, {13, 9487200}, {14, 7411600},
                   {15, 9727200}}));
}

TEST(ReplayPins, FlitAllPortChannelContention) {
  const sim::FlitResult r = flit_replay(core::PortModel::all_port());
  EXPECT_EQ(r.stats.events, 206u);
  EXPECT_EQ(r.stats.messages, 13u);
  EXPECT_EQ(r.stats.flit_transfers, 180u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 1u);
  EXPECT_EQ(r.stats.total_blocked_ns, 1917600);
  EXPECT_EQ(sorted(r.delivery),
            (Times{{1, 2635600},  {2, 5183600},  {3, 2708000},
                   {5, 7333600},  {6, 5256000},  {7, 7571600},
                   {9, 2548000},  {10, 5256000}, {11, 7571600},
                   {12, 5096000}, {13, 7571600}, {14, 7411600},
                   {15, 9727200}}));
}

TEST(ReplayPins, ScatterOnePort) {
  const Topology topo(5);
  const core::MulticastRequest req{
      topo, 3, {0, 5, 6, 9, 12, 17, 20, 23, 26, 30, 31}};
  coll::ScatterConfig config;
  config.port = core::PortModel::one_port();
  config.block_bytes = 512;
  const auto r = coll::simulate_scatter(core::combine(req), config);
  EXPECT_EQ(r.stats.events, 59u);
  EXPECT_EQ(r.stats.messages, 11u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 4u);
  EXPECT_EQ(r.stats.total_blocked_ns, 5130800);
  EXPECT_EQ(sorted(r.delivery),
            (Times{{0, 2790400},  {5, 3030400},  {6, 2556000},
                   {9, 2091200},  {12, 2565600}, {17, 1626400},
                   {20, 3502800}, {23, 3028400}, {26, 2563600},
                   {30, 3740800}, {31, 3268400}}));
}

/// Reduce over the reverse of a W-sort tree to flit_replay's 13
/// destinations: siblings' E-cube paths to a common parent merge, so it
/// blocks. (No U-cube tree on a 4-cube has a reverse tree that blocks.)
coll::ReduceResult reduce_replay(core::PortModel port,
                                 coll::ReduceConfig::Mode mode) {
  const Topology topo(4);
  const core::MulticastRequest req{
      topo, 0, {1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}};
  coll::ReduceConfig config;
  config.port = port;
  config.mode = mode;
  config.block_bytes = 1024;
  return coll::simulate_reduce(core::wsort(req), config);
}

TEST(ReplayPins, ReduceCombineOnePort) {
  const coll::ReduceResult r = reduce_replay(
      core::PortModel::one_port(), coll::ReduceConfig::Mode::Combine);
  EXPECT_EQ(r.stats.events, 46u);
  EXPECT_EQ(r.stats.messages, 13u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 2u);
  EXPECT_EQ(r.stats.total_blocked_ns, 921600);
  EXPECT_EQ(r.completion, 2581344);
  EXPECT_EQ(sorted(r.send_time),
            (Times{{1, 160000},   {2, 864848},   {3, 160000},
                   {5, 160000},   {6, 1327648},  {7, 160000},
                   {9, 160000},   {10, 1327648}, {11, 160000},
                   {12, 2034496}, {13, 160000},  {14, 864848},
                   {15, 160000}}));
}

TEST(ReplayPins, ReduceGatherAllPort) {
  const coll::ReduceResult r = reduce_replay(
      core::PortModel::all_port(), coll::ReduceConfig::Mode::Gather);
  EXPECT_EQ(r.stats.events, 48u);
  EXPECT_EQ(r.stats.messages, 13u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 4u);
  EXPECT_EQ(r.stats.total_blocked_ns, 1839200);
  EXPECT_EQ(r.completion, 6720400);
  EXPECT_EQ(sorted(r.send_time),
            (Times{{1, 160000},   {2, 862800},   {3, 160000},
                   {5, 160000},   {6, 1325600},  {7, 160000},
                   {9, 160000},   {10, 1325600}, {11, 160000},
                   {12, 3410800}, {13, 160000},  {14, 862800},
                   {15, 160000}}));
}

TEST(ReplayPins, AllToAllOnePortLowToHigh) {
  const Topology topo(3, hcube::Resolution::LowToHigh);
  coll::AllToAllConfig config;
  config.port = core::PortModel::one_port();
  config.block_bytes = 256;
  const coll::AllToAllResult r = coll::simulate_all_to_all(topo, config);
  EXPECT_EQ(r.stats.events, 88u);
  EXPECT_EQ(r.stats.messages, 24u);
  EXPECT_EQ(r.stats.blocked_acquisitions, 0u);
  EXPECT_EQ(r.completion, 2108400);
  Times want;
  for (NodeId u = 0; u < topo.num_nodes(); ++u) want[u] = 2108400;
  EXPECT_EQ(sorted(r.finish), want);
}

}  // namespace
}  // namespace hypercast
