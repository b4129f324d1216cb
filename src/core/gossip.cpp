#include "core/gossip.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "net/message.hpp"
#include "sim/network_state.hpp"
#include "sim/vertex_program.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

namespace {

/// Default nodes per shard of the send and install kernels.
constexpr std::size_t kReportGrain = 32;

/// Per-node stale views of everyone else's count rows.
class KnowledgeBase {
 public:
  KnowledgeBase(std::size_t node_count)
      : node_count_(node_count),
        counts_(node_count * node_count * node_count, 0),
        age_(node_count * node_count, 0) {}

  /// Install `update`, the reporter's row sent at round `update.version`,
  /// as seen by `owner`.
  void install(NodeId owner, const net::CountUpdate& update) {
    for (const net::CountUpdate::Entry& entry : update.entries) {
      counts_[flat(owner, update.reporter, entry.peer)] = entry.count;
    }
    age_[static_cast<std::size_t>(owner) * node_count_ + update.reporter] =
        static_cast<std::uint32_t>(update.version);
  }

  [[nodiscard]] std::uint32_t view(NodeId owner, NodeId a, NodeId b) const {
    // Freshest of the two first-hand reports about the (a, b) pair.
    const std::uint32_t age_a = report_round(owner, a);
    const std::uint32_t age_b = report_round(owner, b);
    return age_a >= age_b ? counts_[flat(owner, a, b)] : counts_[flat(owner, b, a)];
  }

  [[nodiscard]] std::uint32_t report_round(NodeId owner, NodeId reporter) const {
    return age_[static_cast<std::size_t>(owner) * node_count_ + reporter];
  }

 private:
  [[nodiscard]] std::size_t flat(NodeId owner, NodeId reporter, NodeId peer) const {
    return (static_cast<std::size_t>(owner) * node_count_ + reporter) * node_count_ +
           peer;
  }

  std::size_t node_count_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> age_;  // round of last report, per (owner, reporter)
};

/// Rotating-window gossip targets of node x at `round` (+ one optimistic
/// peer drawn from `rng`, a per-(round, node) keyed stream).
std::vector<NodeId> gossip_targets(NodeId x, std::uint32_t round, NodeId node_count,
                                   const GossipConfig& config, util::Rng& rng) {
  std::vector<NodeId> targets;
  targets.reserve(config.fanout + 1);
  for (std::uint32_t k = 0; k < config.fanout; ++k) {
    const auto offset = 1 + (static_cast<std::uint64_t>(round) * config.fanout + k) %
                                (node_count - 1);
    targets.push_back(static_cast<NodeId>((x + offset) % node_count));
  }
  if (config.optimistic_peer) {
    NodeId random_peer = x;
    while (random_peer == x) {
      random_peer = static_cast<NodeId>(rng.uniform_index(node_count));
    }
    targets.push_back(random_peer);
  }
  return targets;
}

/// Node x's true count row as the wire message.
net::CountUpdate count_update_of(const PairLedger& ledger, NodeId x,
                                 NodeId node_count, std::uint32_t round) {
  net::CountUpdate update;
  update.reporter = x;
  update.version = round;
  update.entries.reserve(node_count - 1);
  for (NodeId peer = 0; peer < node_count; ++peer) {
    if (peer == x) continue;
    update.entries.push_back(
        net::CountUpdate::Entry{peer, ledger.count(x, peer)});
  }
  return update;
}

}  // namespace

// Gossip as phase kernels over the shared NetworkState. Per round:
// generation kernel (keyed per-edge streams) -> send kernel (count rows
// mailed through the vertex program; the optimistic peer draws from a
// per-(round, node) keyed stream) -> deliver + install kernel (the
// substrate's canonical (send round, sender, send index) merge) ->
// decide kernel (best preferable swap under stale views, fanned over node
// shards against the frozen ledger) -> two-level commit (re-checked
// against live own counts and the frozen view). Results are bit-identical
// for every threads/shards setting.
GossipResult run_gossip(const graph::Graph& generation_graph, const Workload& workload,
                        const GossipConfig& config) {
  require(config.fanout >= 1, "GossipConfig: fanout must be >= 1");
  require(config.latency_per_hop >= 0.0, "GossipConfig: negative latency");
  const auto node_count = static_cast<NodeId>(generation_graph.node_count());
  require(config.fanout <= node_count - 1,
          "GossipConfig: fanout must be <= node_count - 1");
  BalancingSimulation sim(generation_graph, workload, config.base);
  sim::NetworkState& state = sim.state();

  KnowledgeBase knowledge(node_count);
  const auto& distances = sim.distances();

  // The report kernels cost O(n) per node, far below the decide scan, so
  // they take a chunk grain like the engine's own kernels: a small
  // network runs them inline instead of paying two pool handshakes a
  // round. The shard count never affects results.
  const std::size_t grain = sim::ParallelTickEngine::resolve_grain(
      config.base.tick.shards, node_count, kReportGrain);
  // Epoch = round. A round's sends run before its deliver, while the
  // program still sits at the previous epoch, so a report sent in round r
  // that is due at ceil(r + latency * hops) — the sum taken in double —
  // is at least one epoch out, and latency 0 still installs in round r.
  using Program = sim::VertexProgram<net::CountUpdate>;
  Program program(node_count, &state.pool(), (node_count + grain - 1) / grain);
  std::vector<std::uint64_t> shard_bytes(program.shard_count(), 0);

  GossipResult result;
  double view_age_total = 0.0;
  std::uint64_t view_age_samples = 0;

  while (!sim.finished()) {
    util::this_thread_check_cancelled();
    sim.begin_round();
    sim.fault_phase();
    const auto round = static_cast<std::uint32_t>(sim.round());

    sim.generation_phase();

    // 1. Send kernel: count rows to the rotating window (+ one optimistic
    // peer from a keyed stream), over ascending node shards.
    program.run_kernel([&](std::size_t shard, Program::Context& ctx) {
      const auto [begin, end] = sim::ParallelTickEngine::shard_range(
          node_count, program.shard_count(), shard);
      for (auto x = static_cast<NodeId>(begin); x < end; ++x) {
        util::Rng peer_rng = util::Rng::keyed(config.base.seed,
                                              sim::stream_tag::kGossip, round, x);
        const std::vector<NodeId> targets =
            gossip_targets(x, round, node_count, config, peer_rng);
        net::CountUpdate update =
            count_update_of(sim.ledger(), x, node_count, round);
        shard_bytes[shard] += net::encoded_size(update) * targets.size();
        for (std::size_t k = 0; k < targets.size(); ++k) {
          const double due = static_cast<double>(round) +
                             config.latency_per_hop *
                                 static_cast<double>(distances[x][targets[k]]);
          // The last target takes the row itself, the others a copy.
          ctx.send(targets[k],
                   static_cast<std::uint64_t>(std::ceil(due)) - (round - 1),
                   k + 1 < targets.size() ? update : std::move(update));
        }
      }
    });

    // 2. Install kernel: each owner folds its inbox in the canonical
    // order, so per (owner, reporter) installs land in send order.
    const std::vector<std::uint32_t>& active = program.deliver(round);
    if (!active.empty()) {
      program.run_kernel([&](std::size_t shard, Program::Context&) {
        const auto [begin, end] = sim::ParallelTickEngine::shard_range(
            active.size(), program.shard_count(), shard);
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId owner = active[i];
          for (const net::CountUpdate& update : program.inbox(owner)) {
            knowledge.install(owner, update);
          }
          // An install changes what the owner reads at decide time (its
          // beneficiary views, including the freshness tie-break), so the
          // incremental decide must re-run it even if no ledger count it
          // reads moved.
          sim.ledger().mark_dirty(owner);
        }
      });
    }

    // 3. Decide + two-level commit under stale beneficiary views. The
    // decide scan reads the frozen post-generation ledger; the commit
    // re-check reads live own counts but keeps the decision's view count
    // (views do not move during a sweep).
    const auto first = static_cast<NodeId>(round % node_count);
    for (std::uint32_t attempt = 0; attempt < config.base.swaps_per_node_per_round;
         ++attempt) {
      state.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
        return sim.balancer().best_swap_with_view(
            sim.ledger(), x,
            [&](NodeId a, NodeId b) { return knowledge.view(x, a, b); }, scratch);
      });
      const sim::NetworkState::CommitStats stats = state.commit_swaps(
          sim.balancer(), first, round, attempt,
          [&](NodeId x, const SwapCandidate& candidate) {
            return sim.balancer().is_preferable_given_beneficiary(
                sim.ledger(), x, candidate.left, candidate.right,
                candidate.beneficiary_count);
          },
          [&](const sim::NetworkState::CommittedSwap& swap) {
            view_age_total +=
                round - std::max(knowledge.report_round(swap.node, swap.candidate.left),
                                 knowledge.report_round(swap.node, swap.candidate.right));
            ++view_age_samples;
          });
      sim.record_extra_swaps(stats.swaps);
      if (stats.swaps == 0) break;
    }

    sim.consumption_phase();
  }

  result.base = sim.result();
  result.control_messages = program.messages_sent();
  for (const std::uint64_t bytes : shard_bytes) result.control_bytes += bytes;
  result.mean_view_age =
      view_age_samples > 0 ? view_age_total / static_cast<double>(view_age_samples)
                           : 0.0;
  return result;
}

}  // namespace poq::core
