#include "core/gossip.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

Workload workload_for(std::size_t nodes, std::size_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  return make_uniform_workload(nodes, std::min<std::size_t>(8, nodes), requests, rng);
}

TEST(Gossip, CompletesWithPartialKnowledge) {
  const graph::Graph graph = graph::make_cycle(10);
  const Workload workload = workload_for(10, 25, 1);
  GossipConfig config;
  config.base.seed = 3;
  const GossipResult result = run_gossip(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
  EXPECT_EQ(result.base.requests_satisfied, 25u);
}

TEST(Gossip, AccountsControlTraffic) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 15, 2);
  GossipConfig config;
  config.base.seed = 5;
  config.fanout = 2;
  const GossipResult result = run_gossip(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  EXPECT_GT(result.control_messages, 0u);
  EXPECT_GT(result.control_bytes, result.control_messages);  // > 1 byte each
  // fanout + optimistic peer messages per node per round.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(result.base.rounds) * 8 * (2 + 1);
  EXPECT_EQ(result.control_messages, expected);
}

TEST(Gossip, NoOptimisticPeerReducesTraffic) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 15, 3);
  GossipConfig with_peer;
  with_peer.base.seed = 7;
  GossipConfig without_peer = with_peer;
  without_peer.optimistic_peer = false;
  const GossipResult a = run_gossip(graph, workload, with_peer);
  const GossipResult b = run_gossip(graph, workload, without_peer);
  ASSERT_TRUE(a.base.completed);
  ASSERT_TRUE(b.base.completed);
  const double per_round_a =
      static_cast<double>(a.control_messages) / a.base.rounds;
  const double per_round_b =
      static_cast<double>(b.control_messages) / b.base.rounds;
  EXPECT_GT(per_round_a, per_round_b);
}

TEST(Gossip, ViewsAreStale) {
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 20, 4);
  GossipConfig config;
  config.base.seed = 9;
  config.fanout = 1;  // slow rotation -> stale views
  const GossipResult result = run_gossip(graph, workload, config);
  ASSERT_TRUE(result.base.completed);
  EXPECT_GT(result.mean_view_age, 0.0);
}

TEST(Gossip, LargerFanoutFreshensViews) {
  const graph::Graph graph = graph::make_cycle(12);
  const Workload workload = workload_for(12, 30, 5);
  GossipConfig slow;
  slow.base.seed = 11;
  slow.fanout = 1;
  slow.optimistic_peer = false;
  GossipConfig fast = slow;
  fast.fanout = 6;
  const GossipResult a = run_gossip(graph, workload, slow);
  const GossipResult b = run_gossip(graph, workload, fast);
  ASSERT_TRUE(a.base.completed);
  ASSERT_TRUE(b.base.completed);
  EXPECT_LT(b.mean_view_age, a.mean_view_age);
}

TEST(Gossip, StillCompletesWithDistillation) {
  const graph::Graph graph = graph::make_cycle(9);
  const Workload workload = workload_for(9, 12, 6);
  GossipConfig config;
  config.base.seed = 13;
  config.base.distillation = 2.0;
  config.base.max_rounds = 200000;
  const GossipResult result = run_gossip(graph, workload, config);
  EXPECT_TRUE(result.base.completed);
}

TEST(Gossip, DeliveryRoundIsPinned) {
  // A report sent in round r installs in round ceil(r + latency * hops),
  // the sum taken in double. The 50-cycle's antipodes sit 25 hops apart,
  // and 0.28 * 25 = 7.000000000000001: for r >= 1 the sum rounds to an
  // integer and the report lands after 7 rounds, where a per-hop
  // ceil(latency * hops) delay would say 8. Latency 0 installs in the
  // send round; 1.5 exercises fractional dues on a short cycle.
  struct Pin {
    std::size_t nodes;
    double latency;
    std::uint32_t rounds;
    std::uint64_t swaps;
    std::uint64_t control_messages;
    std::uint64_t control_bytes;
    double mean_view_age;
  };
  const std::vector<Pin> pins = {
      {50, 0.28, 493, 21580, 73950, 7597800, 9.183503243744207},
      {10, 0.0, 25, 149, 750, 16500, 0.95302013422818788},
      {10, 1.5, 29, 178, 870, 19140, 3.207865168539326},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << pin.nodes << " nodes, latency " << pin.latency);
    const graph::Graph graph = graph::make_cycle(pin.nodes);
    const Workload workload = workload_for(pin.nodes, 20, 8);
    GossipConfig config;
    config.base.seed = 17;
    config.latency_per_hop = pin.latency;
    const GossipResult result = run_gossip(graph, workload, config);
    ASSERT_TRUE(result.base.completed);
    EXPECT_EQ(result.base.rounds, pin.rounds);
    EXPECT_EQ(result.base.swaps_performed, pin.swaps);
    EXPECT_EQ(result.control_messages, pin.control_messages);
    EXPECT_EQ(result.control_bytes, pin.control_bytes);
    EXPECT_DOUBLE_EQ(result.mean_view_age, pin.mean_view_age);
  }
}

TEST(Gossip, RejectsZeroFanout) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 5, 7);
  GossipConfig config;
  config.fanout = 0;
  EXPECT_THROW([&] { (void)run_gossip(graph, workload, config); }(),
               PreconditionError);
}

TEST(Gossip, RejectsNegativeLatency) {
  const graph::Graph graph = graph::make_cycle(8);
  const Workload workload = workload_for(8, 5, 7);
  GossipConfig config;
  config.latency_per_hop = -1.0;
  EXPECT_THROW([&] { (void)run_gossip(graph, workload, config); }(),
               PreconditionError);
}

}  // namespace
}  // namespace poq::core
