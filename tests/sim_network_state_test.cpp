// sim::NetworkState phase kernels: the generation kernel's keyed streams,
// the decay/decohere kernels, and above all the two-level swap commit —
// disjoint node-triple components commit in parallel, conflicting swaps
// serialize in canonical rotating order, and the outcome must equal a
// fully serial canonical commit, for every threads/shards setting, even
// on a dense round where every node has a candidate.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "graph/topology.hpp"
#include "sim/network_state.hpp"
#include "util/rng.hpp"

namespace poq::sim {
namespace {

using core::MaxMinBalancer;
using core::NodeId;
using core::PairLedger;
using core::SwapCandidate;

TickConcurrency sharded(std::uint32_t threads, std::uint32_t shards = 0) {
  TickConcurrency tick;
  tick.threads = threads;
  tick.shards = shards;
  return tick;
}

/// Text fingerprint of the full count matrix.
std::string ledger_dump(const PairLedger& ledger) {
  std::string out;
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = x + 1; y < n; ++y) {
      out += std::to_string(ledger.count(x, y)) + ",";
    }
    out += "\n";
  }
  return out;
}

/// Seed a dense, conflict-heavy count state: every adjacent triple of the
/// cycle plus chords holds enough pairs that every node decides a swap,
/// and neighbouring triples overlap (maximal conflict components).
void fill_dense(PairLedger& ledger, std::uint32_t pairs_per_link) {
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId x = 0; x < n; ++x) {
    ledger.add(x, static_cast<NodeId>((x + 1) % n), pairs_per_link);
    ledger.add(x, static_cast<NodeId>((x + 2) % n), pairs_per_link / 2 + 1);
  }
}

/// Reference implementation: the fully serial canonical commit (walk
/// nodes in rotating order, re-check, execute with the same keyed
/// streams). The two-level commit must reproduce it exactly.
struct SerialOutcome {
  std::uint64_t swaps = 0;
  std::uint64_t consumed = 0;
  std::vector<NodeId> commit_order;
};
SerialOutcome serial_commit(
    const MaxMinBalancer& balancer, PairLedger& ledger,
    const std::vector<std::optional<SwapCandidate>>& candidates, NodeId first,
    std::uint64_t seed, std::uint32_t round, std::uint32_t attempt) {
  SerialOutcome outcome;
  const auto n = static_cast<NodeId>(ledger.node_count());
  for (NodeId offset = 0; offset < n; ++offset) {
    const auto x = static_cast<NodeId>((first + offset) % n);
    if (!candidates[x]) continue;
    if (!balancer.is_preferable(ledger, x, candidates[x]->left,
                                candidates[x]->right)) {
      continue;
    }
    util::Rng rng = util::Rng::keyed(
        seed, stream_tag::kSwap,
        (static_cast<std::uint64_t>(attempt) << 32) | round, x);
    const auto execution = balancer.execute_swap(
        ledger, x, candidates[x]->left, candidates[x]->right, rng);
    ++outcome.swaps;
    outcome.consumed += execution.consumed_left + execution.consumed_right;
    outcome.commit_order.push_back(x);
  }
  return outcome;
}

TEST(NetworkStateCommit, DenseConflictRoundMatchesSerialCommit) {
  // Dense round: chords guarantee overlapping triples, so most of the
  // network collapses into a few conflict components, with a handful of
  // disjoint ones. Every (threads, shards) setting must reproduce the
  // serial canonical commit bit for bit — counts, stats, and order.
  const graph::Graph graph = graph::make_cycle(24);
  const MaxMinBalancer balancer{core::DistillationMatrix(1.0)};
  const std::uint64_t seed = 99;
  const std::uint32_t round = 17;

  // Reference: serial commit on an identically prepared ledger.
  PairLedger reference(24);
  fill_dense(reference, 6);
  std::vector<std::optional<SwapCandidate>> decided(24);
  std::size_t with_candidate = 0;
  {
    MaxMinBalancer::Scratch scratch;
    for (NodeId x = 0; x < 24; ++x) {
      decided[x] = balancer.best_swap(reference, x, scratch);
      if (decided[x]) ++with_candidate;
    }
  }
  ASSERT_GT(with_candidate, 20u) << "dense setup should decide nearly everywhere";
  const auto first = static_cast<NodeId>(round % 24);
  const SerialOutcome expected =
      serial_commit(balancer, reference, decided, first, seed, round, 0);
  ASSERT_GT(expected.swaps, 0u);

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    for (const std::uint32_t shards : {1u, 3u, 16u}) {
      NetworkState state(graph, seed, sharded(threads, shards));
      fill_dense(state.ledger(), 6);
      state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
        return balancer.best_swap(state.ledger(), x, scratch);
      });
      for (NodeId x = 0; x < 24; ++x) {
        ASSERT_EQ(state.candidates()[x].has_value(), decided[x].has_value());
      }
      std::vector<NodeId> observed_order;
      const NetworkState::CommitStats stats = state.commit_swaps(
          balancer, first, round, 0,
          [&](NodeId x, const SwapCandidate& candidate) {
            return balancer.is_preferable(state.ledger(), x, candidate.left,
                                          candidate.right);
          },
          [&](const NetworkState::CommittedSwap& swap) {
            observed_order.push_back(swap.node);
          });
      EXPECT_EQ(stats.swaps, expected.swaps)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(stats.pairs_consumed, expected.consumed);
      EXPECT_EQ(stats.pairs_produced, expected.swaps);
      EXPECT_EQ(observed_order, expected.commit_order);
      EXPECT_EQ(ledger_dump(state.ledger()), ledger_dump(reference))
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(NetworkStateCommit, ConflictingCandidatesSerializeInCanonicalOrder) {
  // Three nodes on a path all want the same donor pairs: only the first
  // in rotating order can win; the others must fail the re-check.
  const graph::Graph graph = graph::make_path(5);
  const MaxMinBalancer balancer{core::DistillationMatrix(1.0)};
  NetworkState state(graph, 1, sharded(4, 8));
  // One chain 0-1-2-3-4 with exactly two pairs per link: nodes 1, 2, 3
  // each decide a swap, every pair of them conflicts (shared links).
  for (NodeId x = 0; x + 1 < 5; ++x) state.ledger().add(x, x + 1, 2);
  state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
    return balancer.best_swap(state.ledger(), x, scratch);
  });
  ASSERT_TRUE(state.candidates()[1] && state.candidates()[2] &&
              state.candidates()[3]);
  std::vector<NodeId> order;
  const NetworkState::CommitStats stats = state.commit_swaps(
      balancer, /*first=*/1, /*round=*/0, /*attempt=*/0,
      [&](NodeId x, const SwapCandidate& candidate) {
        return balancer.is_preferable(state.ledger(), x, candidate.left,
                                      candidate.right);
      },
      [&](const NetworkState::CommittedSwap& swap) {
        order.push_back(swap.node);
      });
  // Node 1 commits first in rotating order, consuming a (0,1) and a (1,2)
  // pair; node 2's (1,2) donor is gone, so its re-check must fail; node
  // 3's donors (2,3)/(3,4) are untouched, so it commits.
  EXPECT_EQ(stats.swaps, 2u);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 3}));
}

TEST(NetworkStateGeneration, KeyedStreamsAreShardInvariant) {
  const graph::Graph graph = graph::make_cycle(12);
  std::string reference;
  for (const std::uint32_t shards : {1u, 5u, 64u}) {
    NetworkState state(graph, 7, sharded(2, shards));
    std::uint64_t generated = 0;
    for (std::uint32_t round = 1; round <= 20; ++round) {
      generated += state.generate(round, 0.6);
    }
    const std::string dump =
        ledger_dump(state.ledger()) + "#" + std::to_string(generated);
    if (reference.empty()) {
      reference = dump;
      EXPECT_GT(generated, 0u);
    } else {
      EXPECT_EQ(dump, reference) << "shards=" << shards;
    }
  }
}

TEST(NetworkStateDecay, TrackedPairsPurgeAndDecohere) {
  const graph::Graph graph = graph::make_cycle(6);
  NetworkState state(graph, 1, sharded(2, 4), DecayModel{50.0, 0.70});
  state.add_pair(0, 1, 0.0, 0.95);
  state.add_pair(0, 1, 5.0, 0.95);
  state.add_pair(2, 3, 0.0, 0.72);  // barely usable, dies quickly
  EXPECT_EQ(state.ledger().count(0, 1), 2u);
  // At t=6 the fresh pairs hold; the weak one has decayed below 0.70.
  EXPECT_EQ(state.decohere_all(6.0), 1u);
  EXPECT_EQ(state.ledger().count(2, 3), 0u);
  EXPECT_EQ(state.ledger().count(0, 1), 2u);
  // Freshest-first take returns the younger (higher-fidelity) pair.
  const TrackedPair taken = state.take_pair(0, 1, 6.0, /*freshest=*/true);
  EXPECT_EQ(taken.created, 5.0);
  EXPECT_EQ(state.ledger().count(0, 1), 1u);
  // Oldest-first returns the remaining original.
  const TrackedPair oldest = state.take_pair(0, 1, 6.0, /*freshest=*/false);
  EXPECT_EQ(oldest.created, 0.0);
  EXPECT_EQ(state.ledger().total_pairs(), 0u);
}

}  // namespace
}  // namespace poq::sim
