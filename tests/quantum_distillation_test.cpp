#include "quantum/distillation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace poq::quantum {
namespace {

TEST(Bbpssw, PerfectInputsPassThrough) {
  const DistillationStep step = bbpssw(1.0, 1.0);
  EXPECT_NEAR(step.success_probability, 1.0, 1e-12);
  EXPECT_NEAR(step.output_fidelity, 1.0, 1e-12);
}

TEST(Bbpssw, ImprovesAboveThreshold) {
  for (double f : {0.6, 0.7, 0.8, 0.9, 0.95}) {
    const DistillationStep step = bbpssw(f, f);
    EXPECT_GT(step.output_fidelity, f) << "F=" << f;
    EXPECT_GT(step.success_probability, 0.25);
    EXPECT_LE(step.success_probability, 1.0);
  }
}

TEST(Bbpssw, DoesNotImproveAtOrBelowThreshold) {
  const DistillationStep at = bbpssw(0.5, 0.5);
  EXPECT_LE(at.output_fidelity, 0.5 + 1e-12);
  const DistillationStep below = bbpssw(0.4, 0.4);
  EXPECT_LE(below.output_fidelity, 0.4 + 1e-9);
}

TEST(Bbpssw, MixedInputStaysMixed) {
  const DistillationStep step = bbpssw(0.25, 0.25);
  EXPECT_NEAR(step.output_fidelity, 0.25, 1e-12);
}

TEST(Bbpssw, AsymmetricInputsBetweenInputs) {
  const DistillationStep step = bbpssw(0.99, 0.7);
  EXPECT_GT(step.output_fidelity, 0.7);
}

TEST(Dejmps, MatchesKnownRecurrence) {
  const BellDiagonal w = BellDiagonal::werner(0.8);
  const DejmpsResult result = dejmps(w, w);
  const double n = (w.a + w.d) * (w.a + w.d) + (w.b + w.c) * (w.b + w.c);
  EXPECT_NEAR(result.success_probability, n, 1e-12);
  EXPECT_NEAR(result.output.a, (w.a * w.a + w.d * w.d) / n, 1e-12);
  EXPECT_NEAR(result.output.weight_sum(), 1.0, 1e-12);
}

TEST(Dejmps, ImprovesWernerAboveHalf) {
  for (double f : {0.6, 0.75, 0.9}) {
    const BellDiagonal w = BellDiagonal::werner(f);
    const DejmpsResult result = dejmps(w, w);
    EXPECT_GT(result.output.fidelity(), f);
  }
}

TEST(Dejmps, OutputIsNormalizedDistribution) {
  const BellDiagonal s1{0.7, 0.1, 0.15, 0.05};
  const BellDiagonal s2{0.6, 0.2, 0.1, 0.1};
  const DejmpsResult result = dejmps(s1, s2);
  EXPECT_NEAR(result.output.weight_sum(), 1.0, 1e-12);
  EXPECT_GE(result.output.a, 0.0);
  EXPECT_GE(result.output.b, 0.0);
  EXPECT_GE(result.output.c, 0.0);
  EXPECT_GE(result.output.d, 0.0);
  EXPECT_GT(result.success_probability, 0.0);
  EXPECT_LE(result.success_probability, 1.0);
}

TEST(Dejmps, BeatsOrMatchesBbpsswOnWerner) {
  // DEJMPS keeps the Bell-diagonal structure instead of twirling, so its
  // one-round output fidelity on Werner inputs is at least BBPSSW's.
  for (double f : {0.6, 0.75, 0.85, 0.95}) {
    const double bb = bbpssw(f, f).output_fidelity;
    const double dj = dejmps(BellDiagonal::werner(f), BellDiagonal::werner(f)).output.a;
    EXPECT_GE(dj + 1e-12, bb) << "F=" << f;
  }
}

TEST(NestedCost, NoRoundsWhenRawSuffices) {
  const DistillationCost cost = nested_distillation_cost(0.95, 0.9);
  ASSERT_TRUE(cost.reachable);
  EXPECT_EQ(cost.rounds, 0u);
  EXPECT_NEAR(cost.expected_raw_pairs, 1.0, 1e-12);
}

TEST(NestedCost, RoundsAndCostGrowWithTarget) {
  const DistillationCost easy = nested_distillation_cost(0.8, 0.85);
  const DistillationCost hard = nested_distillation_cost(0.8, 0.95);
  ASSERT_TRUE(easy.reachable);
  ASSERT_TRUE(hard.reachable);
  EXPECT_LE(easy.rounds, hard.rounds);
  EXPECT_LT(easy.expected_raw_pairs, hard.expected_raw_pairs);
  EXPECT_GE(hard.output_fidelity, 0.95);
}

TEST(NestedCost, CostAtLeastTwoPerRound) {
  const DistillationCost cost = nested_distillation_cost(0.8, 0.9);
  ASSERT_TRUE(cost.reachable);
  EXPECT_GE(cost.expected_raw_pairs,
            std::pow(2.0, static_cast<double>(cost.rounds)) - 1e-9);
}

TEST(NestedCost, UnreachableBelowThreshold) {
  const DistillationCost cost = nested_distillation_cost(0.45, 0.9);
  EXPECT_FALSE(cost.reachable);
}

TEST(NestedCost, ExceedsFivePairsOverPaperFidelityRange) {
  // The paper sweeps D = 1..5. Nested BBPSSW already costs more than five
  // raw pairs for raw 0.90 -> target 0.95 (about 10.8) and for raw
  // 0.95 -> target 0.99 (about 38.4), so D <= 5 does not correspond to
  // raw links of 0.90-0.95 against a 0.95-0.99 target.
  for (const auto& [raw, target] : {std::pair{0.90, 0.95}, std::pair{0.95, 0.99}}) {
    const DistillationCost cost = nested_distillation_cost(raw, target);
    ASSERT_TRUE(cost.reachable) << raw << " -> " << target;
    EXPECT_GT(cost.expected_raw_pairs, 5.0) << raw << " -> " << target;
  }
}

TEST(PumpingCost, ReachesModestTargets) {
  const DistillationCost cost = pumping_cost(0.85, 0.9);
  ASSERT_TRUE(cost.reachable);
  EXPECT_GT(cost.expected_raw_pairs, 1.0);
}

TEST(PumpingCost, FixedPointLimitsTargets) {
  // Pumping with low raw fidelity converges to a fixed point; targets
  // above it are unreachable even with many rounds.
  const DistillationCost cost = pumping_cost(0.7, 0.99);
  EXPECT_FALSE(cost.reachable);
}

TEST(PumpingCost, NestingReachesHigherThanPumping) {
  // Nesting distills distilled pairs with each other, so its fixed point
  // is 1.0; pumping re-uses raw pairs and plateaus below that.
  const double raw = 0.75;
  const double target = 0.97;
  EXPECT_TRUE(nested_distillation_cost(raw, target).reachable);
  EXPECT_FALSE(pumping_cost(raw, target).reachable);
}

TEST(DistillationOverhead, OneWhenRawMeetsTarget) {
  EXPECT_NEAR(distillation_overhead(0.95, 0.9), 1.0, 1e-12);
}

TEST(DistillationOverhead, GrowsWithTarget) {
  const double d1 = distillation_overhead(0.85, 0.9);
  const double d2 = distillation_overhead(0.85, 0.97);
  EXPECT_GT(d1, 1.0);
  EXPECT_GT(d2, d1);
}

TEST(DistillationOverhead, ThrowsWhenUnreachable) {
  EXPECT_THROW((void)distillation_overhead(0.4, 0.9), PreconditionError);
}

TEST(Distillation, RejectsBadFidelities) {
  EXPECT_THROW((void)bbpssw(-0.1, 0.5), PreconditionError);
  EXPECT_THROW((void)bbpssw(0.5, 1.1), PreconditionError);
  EXPECT_THROW((void)nested_distillation_cost(0.0, 0.5), PreconditionError);
}

}  // namespace
}  // namespace poq::quantum
