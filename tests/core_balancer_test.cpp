#include "core/maxmin_balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/ledger.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "sim/network_state.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {
namespace {

MaxMinBalancer unit_balancer(double distillation = 1.0) {
  return MaxMinBalancer(DistillationMatrix(distillation));
}

// §4's rule, literal reading: swap y' <- x -> y is preferable iff
// C_y(y') + 1 <= min(C_x(y) - D_xy, C_x(y') - D_xy').
TEST(Preferable, BasicCase) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 3);  // C_x(y') with x=0, y'=1
  ledger.add(0, 2, 3);  // C_x(y) with y=2
  // beneficiary (1,2) at 0: 0 + 1 <= min(3-1, 3-1) = 2 -> preferable.
  EXPECT_TRUE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, ExactBoundaryIsPreferable) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  ledger.add(1, 2, 1);  // 1 + 1 = 2 <= min(2, 2) -> still preferable
  EXPECT_TRUE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, BeneficiaryTooRichBlocksSwap) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  ledger.add(1, 2, 2);  // 2 + 1 = 3 > 2 -> not preferable
  EXPECT_FALSE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, DonorTooPoorBlocksSwap) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 1);  // cap = 1 - 1 = 0 < 1
  ledger.add(0, 2, 5);
  EXPECT_FALSE(balancer.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, DistillationRaisesBar) {
  PairLedger ledger(4);
  const MaxMinBalancer d2 = unit_balancer(2.0);
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  // caps = 3 - 2 = 1; beneficiary 0 + 1 <= 1 -> exactly preferable.
  EXPECT_TRUE(d2.is_preferable(ledger, 0, 1, 2));
  const MaxMinBalancer d3 = unit_balancer(3.0);
  // caps = 0 -> not preferable.
  EXPECT_FALSE(d3.is_preferable(ledger, 0, 1, 2));
}

TEST(Preferable, RejectsDegenerateTriples) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  EXPECT_THROW((void)balancer.is_preferable(ledger, 0, 0, 1), PreconditionError);
  EXPECT_THROW((void)balancer.is_preferable(ledger, 0, 1, 1), PreconditionError);
}

TEST(BestSwap, NoneWhenNoPairs) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  EXPECT_FALSE(balancer.best_swap(ledger, 0).has_value());
}

TEST(BestSwap, PicksMinimalBeneficiary) {
  PairLedger ledger(5);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 10);
  ledger.add(0, 2, 10);
  ledger.add(0, 3, 10);
  ledger.add(1, 2, 4);  // candidate (1,2) beneficiary 4
  ledger.add(1, 3, 2);  // candidate (1,3) beneficiary 2  <- minimal
  ledger.add(2, 3, 6);  // candidate (2,3) beneficiary 6
  const auto best = balancer.best_swap(ledger, 0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(NodePair(best->left, best->right), NodePair(1, 3));
  EXPECT_EQ(best->beneficiary_count, 2u);
}

TEST(BestSwap, ZeroBeneficiaryShortCircuits) {
  PairLedger ledger(5);
  const MaxMinBalancer balancer = unit_balancer();
  ledger.add(0, 1, 5);
  ledger.add(0, 2, 5);
  const auto best = balancer.best_swap(ledger, 0);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->beneficiary_count, 0u);
}

TEST(ExecuteSwap, MovesCounts) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer();
  util::Rng rng(1);
  ledger.add(0, 1, 3);
  ledger.add(0, 2, 3);
  const auto execution = balancer.execute_swap(ledger, 0, 1, 2, rng);
  EXPECT_EQ(execution.consumed_left, 1u);
  EXPECT_EQ(execution.consumed_right, 1u);
  EXPECT_EQ(ledger.count(0, 1), 2u);
  EXPECT_EQ(ledger.count(0, 2), 2u);
  EXPECT_EQ(ledger.count(1, 2), 1u);
}

TEST(ExecuteSwap, IntegerDistillationConsumesD) {
  PairLedger ledger(4);
  const MaxMinBalancer balancer = unit_balancer(3.0);
  util::Rng rng(1);
  ledger.add(0, 1, 5);
  ledger.add(0, 2, 7);
  balancer.execute_swap(ledger, 0, 1, 2, rng);
  EXPECT_EQ(ledger.count(0, 1), 2u);
  EXPECT_EQ(ledger.count(0, 2), 4u);
  EXPECT_EQ(ledger.count(1, 2), 1u);
}

TEST(ExecuteSwap, FractionalDistillationAveragesD) {
  util::Rng rng(5);
  const MaxMinBalancer balancer = unit_balancer(1.5);
  std::uint64_t consumed = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    PairLedger ledger(4);
    ledger.add(0, 1, 5);
    ledger.add(0, 2, 5);
    const auto execution = balancer.execute_swap(ledger, 0, 1, 2, rng);
    consumed += execution.consumed_left + execution.consumed_right;
  }
  EXPECT_NEAR(static_cast<double>(consumed) / trials, 3.0, 0.05);
}

/// The global minimum pair count (zeroes included), by dense matrix scan.
std::uint32_t scan_minimum(const PairLedger& ledger) {
  std::uint32_t minimum = UINT32_MAX;
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = x + 1; y < n; ++y) {
      minimum = std::min(minimum, ledger.count(x, y));
    }
  }
  return minimum;
}

// A preferable swap never lowers the global minimum pair count.
TEST(MaxMinProperty, GlobalMinimumNeverDecreases) {
  util::Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    PairLedger ledger(6);
    const MaxMinBalancer balancer = unit_balancer();
    for (NodeId x = 0; x < 6; ++x) {
      for (NodeId y = x + 1; y < 6; ++y) {
        ledger.add(x, y, static_cast<std::uint32_t>(rng.uniform_index(6)));
      }
    }
    for (int step = 0; step < 200; ++step) {
      const NodeId x = static_cast<NodeId>(rng.uniform_index(6));
      const auto candidate = balancer.best_swap(ledger, x);
      if (!candidate) continue;
      const std::uint32_t before = scan_minimum(ledger);
      balancer.execute_swap(ledger, x, candidate->left, candidate->right, rng);
      EXPECT_GE(scan_minimum(ledger), before);
    }
  }
}

// --- the §4 sweep on the shipped engine --------------------------------

/// A frozen network: the complete graph on n nodes with random counts on
/// every pair, and no generation or consumption afterwards.
struct FrozenNetwork {
  FrozenNetwork(std::size_t n, std::uint32_t max_count, util::Rng& rng)
      : graph(graph::make_complete(n)), state(graph, rng(), {}) {
    for (NodeId x = 0; x < n; ++x) {
      for (NodeId y = x + 1; y < n; ++y) {
        state.ledger().add(
            x, y, static_cast<std::uint32_t>(rng.uniform_index(max_count)));
      }
    }
  }
  graph::Graph graph;
  sim::NetworkState state;
};

/// One round of the shipped swap phase: up to `swaps_per_node` decide +
/// two-level commit passes, every node choosing against the snapshot and
/// each commit re-checked against the live ledger. Stats are summed over
/// the passes.
sim::NetworkState::CommitStats frozen_sweep(sim::NetworkState& state,
                                            const MaxMinBalancer& balancer,
                                            std::uint32_t round,
                                            std::uint32_t swaps_per_node) {
  const auto first = static_cast<NodeId>(round % state.node_count());
  sim::NetworkState::CommitStats total;
  for (std::uint32_t attempt = 0; attempt < swaps_per_node; ++attempt) {
    state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
      return balancer.best_swap(state.ledger(), x, scratch);
    });
    const sim::NetworkState::CommitStats stats = state.commit_swaps(
        balancer, first, round, attempt,
        [&](NodeId x, const SwapCandidate& candidate) {
          return balancer.is_preferable(state.ledger(), x, candidate.left,
                                        candidate.right);
        });
    total.swaps += stats.swaps;
    total.pairs_consumed += stats.pairs_consumed;
    total.pairs_produced += stats.pairs_produced;
    if (stats.swaps == 0) break;
  }
  return total;
}

/// Sweep a frozen network to its fixed point, checking per sweep that the
/// global minimum never drops and that pairs are conserved. Returns false
/// when the sweep cap is hit before a sweep commits no swap.
bool sweep_to_fixed_point(sim::NetworkState& state,
                          const MaxMinBalancer& balancer) {
  const PairLedger& ledger = state.ledger();
  for (std::uint32_t round = 1; round <= 20000; ++round) {
    const std::uint64_t total_before = ledger.total_pairs();
    const std::uint32_t minimum_before = scan_minimum(ledger);
    const sim::NetworkState::CommitStats stats =
        frozen_sweep(state, balancer, round, 1);
    EXPECT_GE(scan_minimum(ledger), minimum_before) << "round " << round;
    EXPECT_EQ(ledger.total_pairs(),
              total_before - stats.pairs_consumed + stats.pairs_produced)
        << "round " << round;
    if (stats.swaps == 0) return true;
  }
  return false;
}

// With generation and consumption frozen, sweeps reach a fixed point where
// no node has a preferable swap (the max-min allocation of §4).
TEST(MaxMinProperty, FrozenSystemReachesFixedPoint) {
  util::Rng rng(23);
  FrozenNetwork network(8, 10, rng);
  const MaxMinBalancer balancer = unit_balancer();
  ASSERT_TRUE(sweep_to_fixed_point(network.state, balancer))
      << "balancing did not reach a fixed point";
  for (NodeId x = 0; x < 8; ++x) {
    EXPECT_FALSE(balancer.best_swap(network.state.ledger(), x).has_value());
  }
}

// Parameterized over distillation levels: the fixed point always exists.
// D = 0.5 covers the commit's keyed fractional-D rounding draws.
class FrozenConvergenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrozenConvergenceSweep, TerminatesForAllDistillation) {
  util::Rng rng(29);
  const MaxMinBalancer balancer = unit_balancer(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    FrozenNetwork network(8, 12, rng);
    ASSERT_TRUE(sweep_to_fixed_point(network.state, balancer))
        << "trial " << trial;
    for (NodeId x = 0; x < 8; ++x) {
      EXPECT_FALSE(balancer.best_swap(network.state.ledger(), x).has_value())
          << "trial " << trial << " node " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distillation, FrozenConvergenceSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 4.0, 0.5));

TEST(DetourPolicy, RestrictsFarSwaps) {
  // Cycle of 6; node 3 holds pairs with 2 and 4 whose direct distance is
  // 2 via node 3. With slack 0 the swap is on-geodesic and allowed; for
  // nodes far off the geodesic it must be rejected.
  const graph::Graph graph = graph::make_cycle(6);
  const auto distances = graph::all_pairs_distances(graph);
  BalancerPolicy policy;
  policy.detour_slack = 0;
  const MaxMinBalancer balancer(DistillationMatrix(1.0), policy, &distances);

  PairLedger on_path(6);
  on_path.add(3, 2, 4);
  on_path.add(3, 4, 4);
  EXPECT_TRUE(balancer.is_preferable(on_path, 3, 2, 4));

  PairLedger detour(6);
  detour.add(0, 2, 4);  // dist(2,0)=2, dist(0,4)=2; direct dist(2,4)=2
  detour.add(0, 4, 4);  // through-0 distance 4 > 2 + 0 -> rejected
  EXPECT_FALSE(balancer.is_preferable(detour, 0, 2, 4));

  // Positive slack re-allows it.
  BalancerPolicy loose;
  loose.detour_slack = 2;
  const MaxMinBalancer relaxed(DistillationMatrix(1.0), loose, &distances);
  EXPECT_TRUE(relaxed.is_preferable(detour, 0, 2, 4));
}

TEST(DetourPolicy, RequiresDistances) {
  BalancerPolicy policy;
  policy.detour_slack = 1;
  EXPECT_THROW(MaxMinBalancer(DistillationMatrix(1.0), policy, nullptr),
               PreconditionError);
}

TEST(SweepStats, AccountsConservation) {
  const graph::Graph graph = graph::make_complete(5);
  sim::NetworkState state(graph, 31, {});
  // Fractional D, so the consumed count depends on the keyed draws. Node
  // 0 is rich toward everyone and every other pair starts empty, so the
  // first pass has swaps to commit.
  const MaxMinBalancer balancer = unit_balancer(1.5);
  for (NodeId y = 1; y < 5; ++y) state.ledger().add(0, y, 8);
  const std::uint64_t before = state.ledger().total_pairs();
  const sim::NetworkState::CommitStats stats =
      frozen_sweep(state, balancer, 0, 3);
  EXPECT_GT(stats.swaps, 0u);
  EXPECT_EQ(state.ledger().total_pairs(),
            before - stats.pairs_consumed + stats.pairs_produced);
  EXPECT_EQ(stats.pairs_produced, stats.swaps);
}

// --- independent reference for the §4 scan ----------------------------

using Distances = std::vector<std::vector<std::uint32_t>>;

/// §4's best-swap rule written straight from the paper, with none of the
/// scan's shortcuts: over every unordered pair {y', y} of nodes other than
/// x, in lexicographic (left < right) order, the swap y' <- x -> y is
/// preferable iff C_y(y') + 1 <= min(C_x(y) - D_xy, C_x(y') - D_xy') (and
/// the §6 detour bound holds, when one is set). x picks a preferable swap
/// with minimal C_y(y'); among equals, the lexicographically first.
std::optional<SwapCandidate> reference_best_swap(
    const PairLedger& ledger, const DistillationMatrix& distillation, NodeId x,
    const Distances* distances, std::optional<std::uint32_t> detour_slack) {
  const auto n = static_cast<NodeId>(ledger.node_count());
  const auto capacity = [&](NodeId y) {
    return static_cast<double>(ledger.count(x, y)) - distillation.at(x, y);
  };
  std::optional<SwapCandidate> best;
  for (NodeId left = 0; left < n; ++left) {
    if (left == x || capacity(left) < 1.0) continue;  // cannot donate
    for (NodeId right = static_cast<NodeId>(left + 1); right < n; ++right) {
      if (right == x) continue;
      const std::uint32_t beneficiary = ledger.count(left, right);
      if (static_cast<double>(beneficiary) + 1.0 >
          std::min(capacity(left), capacity(right))) {
        continue;
      }
      if (detour_slack) {
        const auto& d = *distances;
        if (static_cast<std::uint64_t>(d[left][x]) + d[x][right] >
            static_cast<std::uint64_t>(d[left][right]) + *detour_slack) {
          continue;
        }
      }
      if (!best || beneficiary < best->beneficiary_count) {
        best = SwapCandidate{left, right, beneficiary};
      }
    }
  }
  return best;
}

/// Random counts: every pair among `hubs` is live with probability
/// `density` (the dense core where beneficiary counts are nonzero), plus
/// `stray` random pairs anywhere. Counts are uniform in [1, max_count].
void fill_random(PairLedger& ledger, const std::vector<NodeId>& hubs,
                 double density, std::size_t stray, std::uint32_t max_count,
                 util::Rng& rng) {
  const std::size_t n = ledger.node_count();
  const auto draw = [&] {
    return 1 + static_cast<std::uint32_t>(rng.uniform_index(max_count));
  };
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    for (std::size_t j = i + 1; j < hubs.size(); ++j) {
      if (rng.bernoulli(density)) ledger.add(hubs[i], hubs[j], draw());
    }
  }
  for (std::size_t k = 0; k < stray; ++k) {
    const auto a = static_cast<NodeId>(rng.uniform_index(n));
    const auto b = static_cast<NodeId>(rng.uniform_index(n));
    if (a != b) ledger.add(a, b, draw());
  }
}

/// best_swap and best_swap_with_view (reading ground truth through
/// ledger.count) both equal the reference at every node in `nodes`.
void expect_matches_reference(const PairLedger& ledger,
                              const DistillationMatrix& distillation,
                              const std::vector<NodeId>& nodes,
                              const Distances* distances = nullptr,
                              std::optional<std::uint32_t> detour_slack = {}) {
  BalancerPolicy policy;
  policy.detour_slack = detour_slack;
  const MaxMinBalancer balancer(distillation, policy, distances);
  MaxMinBalancer::Scratch scratch;
  scratch.reserve(ledger.node_count());
  std::size_t found = 0;
  for (const NodeId x : nodes) {
    const auto expected =
        reference_best_swap(ledger, distillation, x, distances, detour_slack);
    const auto actual = balancer.best_swap(ledger, x, scratch);
    const auto viewed = balancer.best_swap_with_view(
        ledger, x, [&](NodeId a, NodeId b) { return ledger.count(a, b); },
        scratch);
    ASSERT_EQ(actual.has_value(), expected.has_value()) << "node " << x;
    ASSERT_EQ(viewed.has_value(), expected.has_value()) << "node " << x;
    if (!expected) continue;
    ++found;
    EXPECT_EQ(actual->left, expected->left) << "node " << x;
    EXPECT_EQ(actual->right, expected->right) << "node " << x;
    EXPECT_EQ(actual->beneficiary_count, expected->beneficiary_count)
        << "node " << x;
    EXPECT_EQ(viewed->left, expected->left) << "node " << x;
    EXPECT_EQ(viewed->right, expected->right) << "node " << x;
    EXPECT_EQ(viewed->beneficiary_count, expected->beneficiary_count)
        << "node " << x;
  }
  // The fixture must exercise the scan, not just agree on "no swap".
  if (nodes.size() >= 8) {
    EXPECT_GT(found, 0u);
  }
}

std::vector<NodeId> all_nodes(std::size_t n) {
  std::vector<NodeId> nodes(n);
  for (NodeId x = 0; x < n; ++x) nodes[x] = x;
  return nodes;
}

TEST(BestSwapReference, UniformDistillationMatchesPaperRule) {
  constexpr std::size_t kNodes = 40;
  util::Rng rng(4101);
  const Distances distances =
      graph::all_pairs_distances(graph::make_cycle(kNodes));
  for (const double d : {0.0, 0.5, 1.0, 2.0}) {
    for (int trial = 0; trial < 12; ++trial) {
      // Alternate a sparse core (many zero beneficiaries, early exits) and
      // a dense one with large counts (the minimum must be tracked).
      const bool dense = trial % 2 == 1;
      PairLedger ledger(kNodes);
      fill_random(ledger, all_nodes(kNodes), dense ? 0.9 : 0.3, 20,
                  dense ? 12u : 5u, rng);
      SCOPED_TRACE(::testing::Message() << "D=" << d << " trial " << trial);
      expect_matches_reference(ledger, DistillationMatrix(d),
                               all_nodes(kNodes));
      expect_matches_reference(ledger, DistillationMatrix(d),
                               all_nodes(kNodes), &distances, 0u);
      expect_matches_reference(ledger, DistillationMatrix(d),
                               all_nodes(kNodes), &distances, 3u);
    }
  }
}

TEST(BestSwapReference, PerPairDistillationMatchesPaperRule) {
  constexpr std::size_t kNodes = 30;
  util::Rng rng(4202);
  const Distances distances =
      graph::all_pairs_distances(graph::make_cycle(kNodes));
  for (int trial = 0; trial < 16; ++trial) {
    DistillationMatrix distillation(kNodes, 1.0);
    for (NodeId x = 0; x < kNodes; ++x) {
      for (NodeId y = x + 1; y < kNodes; ++y) {
        // Fractional overheads in [0, 3): half on exact quarter steps, so
        // the preferability bound is often met with equality.
        distillation.set(
            x, y,
            rng.bernoulli(0.5)
                ? 0.25 * static_cast<double>(rng.uniform_index(12))
                : rng.uniform_double(0.0, 3.0));
      }
    }
    PairLedger ledger(kNodes);
    fill_random(ledger, all_nodes(kNodes), 0.7, 10, 9, rng);
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_matches_reference(ledger, distillation, all_nodes(kNodes));
    expect_matches_reference(ledger, distillation, all_nodes(kNodes),
                             &distances, 1u);
  }
}

TEST(BestSwapReference, EmptyAndSinglePartnerRows) {
  PairLedger ledger(6);
  ledger.add(1, 2, 5);  // node 1 and 2: one partner each
  ledger.add(3, 4, 2);
  ledger.add(3, 5, 2);  // node 3: two partners, beneficiary (4,5) = 0
  // Node 0 has an empty row; 1, 2, 4, 5 have one partner, so no pair.
  for (const double d : {0.0, 0.5, 1.0, 2.0}) {
    SCOPED_TRACE(::testing::Message() << "D=" << d);
    expect_matches_reference(ledger, DistillationMatrix(d), all_nodes(6));
  }
  const MaxMinBalancer balancer = unit_balancer();
  EXPECT_FALSE(balancer.best_swap(ledger, 0).has_value());
  EXPECT_FALSE(balancer.best_swap(ledger, 1).has_value());
  ASSERT_TRUE(balancer.best_swap(ledger, 3).has_value());
}

TEST(BestSwapReference, SparseRowsAboveFullReserveLimit) {
  // Above kFullReserveNodeLimit rows grow amortized instead of
  // pre-reserving; the scan must read them identically. A dense core of
  // hubs spread over the id range plus stray pairs everywhere.
  constexpr std::size_t kNodes = 1100;
  static_assert(kNodes > PairLedger::kFullReserveNodeLimit);
  util::Rng rng(4303);
  std::vector<NodeId> hubs;
  for (int k = 0; k < 48; ++k) {
    hubs.push_back(static_cast<NodeId>(rng.uniform_index(kNodes)));
  }
  std::sort(hubs.begin(), hubs.end());
  hubs.erase(std::unique(hubs.begin(), hubs.end()), hubs.end());
  const Distances distances =
      graph::all_pairs_distances(graph::make_cycle(kNodes));
  for (const double d : {0.0, 1.0, 2.0}) {
    PairLedger ledger(kNodes);
    fill_random(ledger, hubs, 0.6, 3000, 8, rng);
    std::vector<NodeId> nodes = hubs;
    for (int k = 0; k < 8; ++k) {
      nodes.push_back(static_cast<NodeId>(rng.uniform_index(kNodes)));
    }
    SCOPED_TRACE(::testing::Message() << "D=" << d);
    expect_matches_reference(ledger, DistillationMatrix(d), nodes);
    expect_matches_reference(ledger, DistillationMatrix(d), nodes, &distances,
                             200u);
  }
}

}  // namespace
}  // namespace poq::core
