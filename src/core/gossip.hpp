// Partial-knowledge balancing via count gossip (§6).
//
// §4 assumes "immediate global knowledge of all buffers"; §6 suggests "a
// BitTorrent-like approach ... where each node knows only the status of a
// rotating but small number of neighbors, would intuitively scale well."
// GossipSimulation implements that: each round every node sends its true
// count row to a rotating window of peers (plus one random optimistic
// peer), messages arrive after a hop-distance latency, and swap
// decisions read *stale views* for beneficiary counts (a node's own
// counts are always ground truth — it owns those qubits). Classical
// overhead is accounted in encoded bytes per message.
//
// The round runs as phase kernels on the sharded engine — deterministic
// per-round message merge in canonical sender order, swap decisions
// fanned over node shards against the frozen ledger, and the two-level
// commit — so results are bit-identical for every threads/shards setting
// (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>

#include "core/balancing_sim.hpp"

namespace poq::core {

struct GossipConfig {
  BalancingConfig base;
  /// Rotating peers contacted per round (the unchoke window size).
  std::uint32_t fanout = 2;
  /// Also contact one uniformly random peer per round ("optimistic
  /// unchoke").
  bool optimistic_peer = true;
  /// Classical latency per generation-graph hop, in rounds.
  double latency_per_hop = 1.0;
};

struct GossipResult {
  BalancingResult base;
  std::uint64_t control_messages = 0;
  std::uint64_t control_bytes = 0;
  /// Mean age (rounds) of the beneficiary views actually used at swap
  /// decisions; 0 would be the paper's global-knowledge assumption.
  double mean_view_age = 0.0;
};

[[nodiscard]] GossipResult run_gossip(const graph::Graph& generation_graph,
                                      const Workload& workload,
                                      const GossipConfig& config);

}  // namespace poq::core
