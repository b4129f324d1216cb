// Fidelity-aware continuous-time simulation (§3.2 / §6 "realistic
// coherence, QEC and distillation overheads").
//
// The round-based evaluation abstracts distillation and loss into the
// scalars D and L. This simulator drops the abstraction: every stored
// Bell pair carries its creation time and creation fidelity; storage
// decoheres it (F(t) = 1/4 + (F0 - 1/4) e^{-t/T}); pairs that sink below
// the usability threshold are discarded (realizing L empirically); swaps
// compose Werner fidelities; and BBPSSW distillation runs explicitly with
// probabilistic success (realizing D empirically). The §6 pairing
// suggestion — "avoiding combining Bell pairs with short expected
// remaining coherence times with those that have longer times" — is a
// policy knob.
//
// The physics — Poisson pair generation per edge, Poisson swap/distill
// scans per node, head-of-line consumption — runs as phase kernels over
// sim::NetworkState in fixed time slices: per-node event sharding draws
// each entity's Poisson event times from counter-based keyed streams,
// decisions are computed against the slice snapshot in parallel, and
// commits execute in canonical (timestamp, node id) order — so results
// are bit-identical for every threads/shards setting.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "core/workload.hpp"
#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_engine.hpp"
#include "util/stats.hpp"

namespace poq::core {

/// Which stored pairs a swap (or distillation) consumes first.
enum class PairingPolicy {
  kFreshest,  // highest current fidelity first (coherence-aware, §6)
  kOldest,    // FIFO: drain the oldest pairs first
};

struct FidelitySimConfig {
  /// Poisson Bell-pair generation rate per generation edge.
  double generation_rate = 1.0;
  /// Fidelity of freshly generated elementary pairs. Multi-hop service
  /// needs headroom: an h-hop swap chain lands at 1/4 + 3/4 p^h with
  /// p = (4F-1)/3, so e.g. four hops of 0.97 links yield ~0.89.
  double raw_fidelity = 0.97;
  /// Poisson rate of per-node swap/distill scans.
  double scan_rate = 1.0;
  /// Memory decoherence time constant T (simulation time units).
  double memory_time_constant = 50.0;
  /// Below this fidelity a stored pair is useless and discarded.
  double usable_fidelity = 0.70;
  /// Consumption (teleportation) requires at least this fidelity.
  double app_fidelity = 0.80;
  /// Run BBPSSW distillation when a pair type has spare low pairs.
  bool distillation_enabled = true;
  PairingPolicy policy = PairingPolicy::kFreshest;
  /// Simulated duration.
  double duration = 500.0;
  std::uint64_t seed = 1;
  /// Intra-run threads/shards/decide knobs (never change results).
  sim::TickConcurrency tick;

  /// Fault-injection plan. A fault "round" here is one slice of width
  /// 0.25/scan_rate: the plan advances at every slice boundary. A crash
  /// destroys the node's stored tracked pairs (counted as purged, not
  /// decayed) and halts generation and scans at that node; a downed link
  /// halts generation only. Disabled by default (bit-identical historical
  /// path).
  sim::FaultConfig faults;
};

struct FidelitySimResult {
  std::uint64_t pairs_generated = 0;
  std::uint64_t pairs_decayed = 0;        // discarded below usable_fidelity
  std::uint64_t swaps = 0;
  std::uint64_t swap_outputs_discarded = 0;  // swap result below usable
  std::uint64_t distillations = 0;
  std::uint64_t distillation_failures = 0;
  std::uint64_t requests_satisfied = 0;
  std::uint64_t pairs_in_storage_at_end = 0;

  /// Empirical L of Eq. 3: fraction of created pairs (generated + swap
  /// outputs) that survived to be used rather than decaying.
  [[nodiscard]] double realized_survival() const {
    const double created =
        static_cast<double>(pairs_generated) + static_cast<double>(swaps);
    if (created <= 0.0) return 1.0;
    return 1.0 - static_cast<double>(pairs_decayed) / created;
  }

  /// Empirical D of Eq. 4: pairs destroyed per useful output
  /// (swap inputs + distillation inputs per swap output + distilled pair).
  [[nodiscard]] double realized_distillation_overhead() const;

  util::RunningStats consumed_fidelity;   // fidelity at consumption time
  util::RunningStats request_latency;     // head-of-line wait per request
  util::RunningStats storage_age_at_use;  // how long used pairs sat in memory

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

  /// Cumulative wall-clock per slice kernel. Observability only —
  /// outside the determinism contract.
  sim::PhaseTimers phase;
};

/// Run the fidelity-aware simulation of `workload` (head-of-line request
/// order) over `generation_graph`.
[[nodiscard]] FidelitySimResult run_fidelity_sim(const graph::Graph& generation_graph,
                                                 const Workload& workload,
                                                 const FidelitySimConfig& config);

}  // namespace poq::core
