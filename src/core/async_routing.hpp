// Asynchronous entanglement routing (after Yang et al., "Asynchronous
// Entanglement Routing for the Quantum Internet").
//
// The paper's protocols resolve consumption in global rounds or a single
// head-of-line handshake. Here requests arrive continuously via a Poisson
// stream and route independently: each request is a token that starts at
// its source and greedily follows currently-entangled segments toward its
// destination — at every node it consumes one Bell pair toward the
// entangled neighbor closest (in generation-graph hops) to the
// destination, strictly decreasing the remaining distance. Junction nodes
// chain consecutive segments by entanglement swapping; the token handoff
// to the next junction is a classical message that crosses the fabric
// with per-hop latency. A token that finds no useful segment waits where
// it is until local pair counts change, and is dropped on timeout.
//
// Runs on the sim::VertexProgram substrate: token handoffs are the typed
// messages, the apply kernel (sharded across the ParallelTickEngine pool)
// enqueues arrivals, and the signaled-set drives the retry discipline —
// a blocked node is re-examined only when its pair counts or waiting set
// changed (decide=incremental), which is result-identical to retrying
// every epoch (decide=full) because a token's routing step is a pure
// function of exactly that state.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "core/workload.hpp"
#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "util/stats.hpp"

namespace poq::core {

struct AsyncRoutingConfig {
  /// Poisson arrival rate of consumption requests (per time unit). Each
  /// arrival takes the next request of the workload sequence; the stream
  /// stops when the sequence is exhausted.
  double arrival_rate = 0.5;
  /// Poisson Bell-pair generation rate per generation edge.
  double generation_rate = 1.0;
  /// Classical latency per generation-graph hop (time units) for token
  /// handoff messages.
  double latency_per_hop = 0.1;
  /// A token still waiting this long after its arrival is dropped.
  double timeout = 50.0;
  /// Epoch length (time units) of the vertex-program loop.
  double dt = 0.25;
  double duration = 400.0;
  std::uint64_t seed = 1;
  /// Intra-run engine knobs (vertex-program substrate; results are
  /// bit-identical for every threads/shards/decide setting).
  sim::TickConcurrency tick;

  /// Fault-injection plan (one fault round per epoch). A crash destroys
  /// the Bell pairs at the node's links and halts its routing steps while
  /// down; waiting tokens are classical and survive (they still expire on
  /// timeout). Disabled by default (bit-identical historical path).
  sim::FaultConfig faults;
};

struct AsyncRoutingResult {
  std::uint64_t requests_arrived = 0;
  std::uint64_t requests_satisfied = 0;
  std::uint64_t requests_dropped = 0;
  /// Entanglement swaps performed at junction nodes (every segment
  /// consumed at a node other than the token's source chains two
  /// segments).
  std::uint64_t swaps = 0;
  std::uint64_t pairs_generated = 0;
  std::uint64_t pairs_consumed = 0;
  /// Token handoff messages (one per junction-to-junction move).
  std::uint64_t control_messages = 0;

  /// Arrival-to-completion latency of satisfied requests.
  util::RunningStats request_latency;
  /// Segments consumed per satisfied request.
  util::RunningStats request_hops;

  /// Fault-injection resilience counters (zero / availability 1 when
  /// faults are disabled — the historical metric set is untouched).
  double availability = 1.0;
  std::uint64_t fault_rounds_degraded = 0;
  std::uint64_t delivered_under_fault = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t link_downs = 0;
  std::uint64_t pairs_purged_by_faults = 0;
  /// Simulated time from the end of each degraded episode to the next
  /// satisfied request.
  util::RunningStats time_to_recover;

  [[nodiscard]] double satisfied_fraction() const {
    return requests_arrived == 0
               ? 0.0
               : static_cast<double>(requests_satisfied) /
                     static_cast<double>(requests_arrived);
  }
  [[nodiscard]] double drop_fraction() const {
    return requests_arrived == 0
               ? 0.0
               : static_cast<double>(requests_dropped) /
                     static_cast<double>(requests_arrived);
  }
};

/// Run asynchronous routing of `workload`'s request sequence (arrival
/// order, continuously resolved) over `generation_graph`.
[[nodiscard]] AsyncRoutingResult run_async_routing(
    const graph::Graph& generation_graph, const Workload& workload,
    const AsyncRoutingConfig& config);

}  // namespace poq::core
