#include "scenario/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/balancing_sim.hpp"
#include "core/planned_path.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "scenario/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::scenario {
namespace {

ScenarioSpec small_spec(const std::string& protocol) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = "random-grid";
  spec.nodes = 9;
  spec.consumer_pairs = 8;
  spec.requests = 5;
  spec.seed = 3;
  return spec;
}

TEST(Registry, AllSixSimulatorsPlusLpAreRegistered) {
  const std::vector<std::string> names = registry().names();
  for (const char* expected : {"balancing", "planned", "hybrid", "gossip",
                               "distributed", "fidelity", "lp"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing protocol " << expected;
  }
}

TEST(Registry, EveryProtocolRunsASmallScenario) {
  for (const std::string& name : registry().names()) {
    ScenarioSpec spec = small_spec(name);
    if (name == "distributed" || name == "fidelity") {
      spec.knobs["duration"] = 30.0;
    }
    const RunMetrics metrics = registry().run(name, spec);
    EXPECT_FALSE(metrics.scalars().empty()) << "protocol " << name;
  }
}

TEST(Registry, BalancingAdapterMatchesDirectSimulatorCall) {
  const ScenarioSpec spec = [] {
    ScenarioSpec s = small_spec("balancing");
    s.requests = 12;
    s.knobs["distillation"] = 2.0;
    s.knobs["max-rounds"] = std::int64_t{4000};
    return s;
  }();
  const RunMetrics metrics = registry().run("balancing", spec);

  // Rebuild the experiment by hand with the historical seeding discipline.
  util::Rng rng(spec.seed);
  const graph::Graph graph =
      graph::make_topology(graph::TopologyFamily::kRandomGrid, spec.nodes, rng);
  util::Rng workload_rng = rng.fork(42);
  const core::Workload workload = core::make_uniform_workload(
      spec.nodes, spec.consumer_pairs, spec.requests, workload_rng);
  core::BalancingConfig config;
  config.distillation = 2.0;
  config.max_rounds = 4000;
  config.seed = spec.seed;
  const core::BalancingResult direct = core::run_balancing(graph, workload, config);

  EXPECT_EQ(metrics.label("completed"), direct.completed ? "yes" : "no");
  EXPECT_EQ(metrics.scalar("rounds"), static_cast<double>(direct.rounds));
  EXPECT_EQ(metrics.scalar("swaps"), static_cast<double>(direct.swaps_performed));
  EXPECT_EQ(metrics.scalar("satisfied"),
            static_cast<double>(direct.requests_satisfied));
  if (direct.denominator_paper > 0.0) {
    EXPECT_DOUBLE_EQ(metrics.scalar("overhead_paper"),
                     direct.swap_overhead_paper());
  }
}

TEST(Registry, PlannedAdapterHonorsModeKnob) {
  ScenarioSpec spec = small_spec("planned");
  spec.knobs["mode"] = std::string("connectionless");
  const RunMetrics connectionless = registry().run("planned", spec);
  EXPECT_EQ(connectionless.label("mode"), "connectionless");
  spec.knobs["mode"] = std::string("sideways");
  EXPECT_THROW((void)registry().run("planned", spec), PreconditionError);
}

TEST(Registry, SameSpecSameMetrics) {
  const ScenarioSpec spec = small_spec("gossip");
  const RunMetrics a = registry().run("gossip", spec);
  const RunMetrics b = registry().run("gossip", spec);
  ASSERT_EQ(a.scalars().size(), b.scalars().size());
  for (std::size_t i = 0; i < a.scalars().size(); ++i) {
    EXPECT_EQ(a.scalars()[i].first, b.scalars()[i].first);
    EXPECT_EQ(a.scalars()[i].second, b.scalars()[i].second);  // bit-identical
  }
}

TEST(Registry, LpProtocolReportsStatus) {
  const RunMetrics metrics = registry().run("lp", small_spec("lp"));
  EXPECT_EQ(metrics.label("status"), "optimal");
  EXPECT_TRUE(metrics.has_scalar("total_generation"));
}

TEST(Registry, IsolatedRegistryCanHostCustomProtocols) {
  class Probe final : public Protocol {
   public:
    std::string name() const override { return "probe"; }
    std::string describe() const override { return "test probe"; }
    std::vector<KnobSpec> knobs() const override { return {}; }
    RunMetrics run(const ScenarioSpec&) const override {
      RunMetrics metrics;
      metrics.set_scalar("answer", 42.0);
      return metrics;
    }
  };
  Registry isolated;
  isolated.add(std::make_unique<Probe>());
  ScenarioSpec spec = small_spec("probe");
  EXPECT_EQ(isolated.run("probe", spec).scalar("answer"), 42.0);
  EXPECT_FALSE(isolated.contains("balancing"));
}

TEST(RunMetrics, JsonRoundTrip) {
  RunMetrics metrics;
  metrics.set_label("completed", "yes");
  metrics.set_scalar("rounds", 123.0);
  metrics.set_scalar("overhead_paper", 1.875);
  util::RunningStats stats;
  stats.add(1.0);
  stats.add(2.0);
  stats.add(4.0);
  metrics.set_stats("head_wait_rounds", stats);

  const RunMetrics round = RunMetrics::from_json(
      util::json::Value::parse(metrics.to_json().dump(2)));
  EXPECT_EQ(round.label("completed"), "yes");
  EXPECT_EQ(round.scalar("rounds"), 123.0);
  EXPECT_EQ(round.scalar("overhead_paper"), 1.875);
  const util::RunningStats& restored = round.stats("head_wait_rounds");
  EXPECT_EQ(restored.count(), 3u);
  EXPECT_DOUBLE_EQ(restored.mean(), stats.mean());
  EXPECT_NEAR(restored.stddev(), stats.stddev(), 1e-12);
  EXPECT_EQ(restored.min(), 1.0);
  EXPECT_EQ(restored.max(), 4.0);
}

}  // namespace
}  // namespace poq::scenario
