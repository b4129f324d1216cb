// sim::FaultPlan: the deterministic availability mask under scripted and
// stochastic churn. The contract the drivers lean on: advance() is a pure
// function of (seed, round, script), crashed lists come back sorted, edge
// availability is link-up AND both endpoints up, and an all-defaults
// config is exactly "no faults". sim::Resilience: the episode rule every
// simulator's delivered_under_fault and time_to_recover follow.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "util/error.hpp"

namespace poq::sim {
namespace {

using core::NodeId;

/// 5-cycle: edges (0,1) (1,2) (2,3) (3,4) (4,0).
graph::Graph cycle5() {
  graph::Graph graph(5);
  for (NodeId x = 0; x < 5; ++x) {
    graph.add_edge(x, static_cast<NodeId>((x + 1) % 5));
  }
  return graph;
}

TEST(FaultPlan, DefaultConfigIsDisabled) {
  const FaultConfig config;
  EXPECT_FALSE(config.enabled());
  FaultConfig stochastic;
  stochastic.node_mtbf = 100.0;
  EXPECT_TRUE(stochastic.enabled());
  FaultConfig scripted;
  scripted.script.push_back({5, FaultEventKind::kNodeDown, 1, 0, 0, 1.0});
  EXPECT_TRUE(scripted.enabled());
}

TEST(FaultPlan, ScriptedNodeCrashAndRecovery) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({2, FaultEventKind::kNodeDown, 3, 0, 0, 1.0});
  config.script.push_back({5, FaultEventKind::kNodeUp, 3, 0, 0, 1.0});
  FaultPlan plan(graph, config, 7);

  EXPECT_TRUE(plan.advance(1).empty());
  EXPECT_TRUE(plan.node_up(3));
  EXPECT_FALSE(plan.degraded());

  const std::vector<NodeId>& crashed = plan.advance(2);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 3u);
  EXPECT_FALSE(plan.node_up(3));
  EXPECT_TRUE(plan.degraded());
  // Both incident edges (2,3) and (3,4) lose availability; the link
  // itself is still up.
  EXPECT_FALSE(plan.edge_up(2));
  EXPECT_FALSE(plan.edge_up(3));
  EXPECT_TRUE(plan.edge_up(0));
  EXPECT_TRUE(plan.any_edge_down());

  EXPECT_TRUE(plan.advance(3).empty());  // stays down, no new crash
  EXPECT_TRUE(plan.advance(4).empty());
  EXPECT_TRUE(plan.advance(5).empty());  // recovery is not a crash
  EXPECT_TRUE(plan.node_up(3));
  EXPECT_FALSE(plan.any_edge_down());
  EXPECT_EQ(plan.stats().node_crashes, 1u);
  EXPECT_EQ(plan.stats().degraded_rounds, 3u);
}

TEST(FaultPlan, ScriptedLinkDownMasksOnlyThatEdge) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({1, FaultEventKind::kLinkDown, 0, 4, 0, 1.0});
  FaultPlan plan(graph, config, 7);
  EXPECT_TRUE(plan.advance(1).empty());  // link faults purge nothing
  EXPECT_FALSE(plan.edge_up(4));         // edge (4,0), scripted either order
  for (std::size_t e = 0; e < 4; ++e) EXPECT_TRUE(plan.edge_up(e));
  EXPECT_TRUE(plan.node_up(4));
  EXPECT_TRUE(plan.node_up(0));
  EXPECT_EQ(plan.stats().link_downs, 1u);
}

TEST(FaultPlan, ScriptedRateFactorPersists) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({3, FaultEventKind::kRateFactor, 0, 0, 0, 0.25});
  config.script.push_back({6, FaultEventKind::kRateFactor, 0, 0, 0, 1.0});
  FaultPlan plan(graph, config, 7);
  plan.advance(1);
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 1.0);
  plan.advance(3);
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 0.25);
  plan.advance(4);  // persists until the restoring event
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 0.25);
  EXPECT_TRUE(plan.degraded());
  plan.advance(6);
  EXPECT_DOUBLE_EQ(plan.rate_factor(), 1.0);
  EXPECT_FALSE(plan.degraded());
}

TEST(FaultPlan, StochasticChurnIsSeedDeterministic) {
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.node_mtbf = 8.0;
  config.node_mttr = 3.0;
  config.link_mtbf = 6.0;
  config.link_mttr = 2.0;
  config.rate_degradation = 0.5;

  const auto trajectory = [&](std::uint64_t seed) {
    FaultPlan plan(graph, config, seed);
    std::vector<std::uint64_t> out;
    for (std::uint64_t round = 1; round <= 200; ++round) {
      const std::vector<NodeId>& crashed = plan.advance(round);
      std::uint64_t mask = crashed.size();
      for (NodeId x = 0; x < 5; ++x) mask = mask * 2 + (plan.node_up(x) ? 1 : 0);
      for (std::size_t e = 0; e < 5; ++e) mask = mask * 2 + (plan.edge_up(e) ? 1 : 0);
      out.push_back(mask);
    }
    return out;
  };
  EXPECT_EQ(trajectory(11), trajectory(11));
  EXPECT_NE(trajectory(11), trajectory(12)) << "seed does not reach the streams";

  FaultPlan plan(graph, config, 11);
  for (std::uint64_t round = 1; round <= 200; ++round) {
    const std::vector<NodeId>& crashed = plan.advance(round);
    EXPECT_TRUE(std::is_sorted(crashed.begin(), crashed.end()));
    EXPECT_GT(plan.rate_factor(), 0.5 - 1e-12);
    EXPECT_LE(plan.rate_factor(), 1.0);
  }
  EXPECT_GT(plan.stats().node_crashes, 0u);
  EXPECT_GT(plan.stats().link_downs, 0u);
  EXPECT_EQ(plan.stats().rounds, 200u);
  EXPECT_GT(plan.stats().availability(), 0.0);
  EXPECT_LT(plan.stats().availability(), 1.0);
}

TEST(FaultPlan, ValidationRejectsBadScriptsAndParameters) {
  const graph::Graph graph = cycle5();
  {
    FaultConfig config;
    config.script.push_back({1, FaultEventKind::kNodeDown, 9, 0, 0, 1.0});
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;  // (0,2) is a chord the cycle does not have
    config.script.push_back({1, FaultEventKind::kLinkDown, 0, 0, 2, 1.0});
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;
    config.script.push_back({1, FaultEventKind::kRateFactor, 0, 0, 0, 1.5});
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;
    config.node_mtbf = 10.0;
    config.node_mttr = 0.5;  // would recover faster than one round
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
  {
    FaultConfig config;
    config.rate_degradation = 1.0;  // could zero the rate forever
    EXPECT_THROW(FaultPlan(graph, config, 1), PreconditionError);
  }
}

TEST(FaultPlan, AvailabilityTracksDowntimeExactly) {
  // One node of five down for 2 of 4 rounds, links untouched: per-round
  // availability is 9/10 while down, 1 otherwise.
  const graph::Graph graph = cycle5();
  FaultConfig config;
  config.script.push_back({2, FaultEventKind::kNodeDown, 0, 0, 0, 1.0});
  config.script.push_back({4, FaultEventKind::kNodeUp, 0, 0, 0, 1.0});
  FaultPlan plan(graph, config, 3);
  for (std::uint64_t round = 1; round <= 4; ++round) plan.advance(round);
  EXPECT_DOUBLE_EQ(plan.stats().availability(), (1.0 + 0.9 + 0.9 + 1.0) / 4.0);
  EXPECT_EQ(plan.stats().degraded_rounds, 2u);
}

TEST(Resilience, DeliveryWhileDegradedCountsUnderFault) {
  Resilience resilience;
  resilience.note_round(false, 1.0);
  resilience.note_delivery(1.0);
  EXPECT_EQ(resilience.delivered_under_fault, 0u);
  resilience.note_round(true, 2.0);
  resilience.note_delivery(2.0);
  resilience.note_delivery(2.0);
  EXPECT_EQ(resilience.delivered_under_fault, 2u);
}

TEST(Resilience, OnlyFirstDeliveryAfterEpisodeSamplesRecovery) {
  Resilience resilience;
  resilience.note_round(true, 3.0);
  resilience.note_round(true, 4.0);
  resilience.note_round(false, 5.0);  // the episode ends here
  resilience.note_round(false, 6.0);
  resilience.note_round(false, 7.5);
  resilience.note_delivery(7.5);
  resilience.note_delivery(7.5);
  resilience.note_round(false, 9.0);
  resilience.note_delivery(9.0);
  ASSERT_EQ(resilience.time_to_recover.count(), 1u);
  EXPECT_DOUBLE_EQ(resilience.time_to_recover.mean(), 2.5);
  EXPECT_EQ(resilience.delivered_under_fault, 0u);
}

TEST(Resilience, SecondEpisodeBeforeDeliveryRetimesFromLaterEnd) {
  Resilience resilience;
  resilience.note_round(true, 1.0);
  resilience.note_round(false, 2.0);  // first episode ends, no delivery
  resilience.note_round(true, 3.0);
  resilience.note_round(false, 6.0);  // second episode ends
  resilience.note_round(false, 7.0);
  resilience.note_delivery(7.0);
  ASSERT_EQ(resilience.time_to_recover.count(), 1u);
  EXPECT_DOUBLE_EQ(resilience.time_to_recover.mean(), 1.0);
}

TEST(Resilience, NoEpisodeMeansNoRecoverySample) {
  Resilience resilience;
  for (int round = 1; round <= 5; ++round) {
    resilience.note_round(false, round);
    resilience.note_delivery(round);
  }
  EXPECT_EQ(resilience.time_to_recover.count(), 0u);
  // An episode still running at the end of the run never samples either.
  resilience.note_round(true, 6.0);
  resilience.note_delivery(6.0);
  EXPECT_EQ(resilience.time_to_recover.count(), 0u);
  EXPECT_EQ(resilience.delivered_under_fault, 1u);
}

TEST(Resilience, AbsorbCopiesFaultStats) {
  Resilience resilience;
  resilience.absorb(FaultStats{});
  EXPECT_DOUBLE_EQ(resilience.availability, 1.0);
  EXPECT_EQ(resilience.fault_rounds_degraded, 0u);

  FaultStats stats;
  stats.rounds = 4;
  stats.availability_sum = 3.0;
  stats.degraded_rounds = 2;
  stats.node_crashes = 3;
  stats.link_downs = 5;
  resilience.pairs_purged_by_faults = 7;
  resilience.absorb(stats);
  EXPECT_DOUBLE_EQ(resilience.availability, 0.75);
  EXPECT_EQ(resilience.fault_rounds_degraded, 2u);
  EXPECT_EQ(resilience.node_crashes, 3u);
  EXPECT_EQ(resilience.link_downs, 5u);
  // Purges are the simulator's own count; absorb leaves them alone.
  EXPECT_EQ(resilience.pairs_purged_by_faults, 7u);
}

}  // namespace
}  // namespace poq::sim
