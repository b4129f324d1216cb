// Shared simulation substrate for the phase-kernel protocols.
//
// Every round/slice-based protocol in the repo decomposes into the same
// ordered phase kernels over one network state:
//
//   generate -> observe/message-merge -> decide -> commit -> decohere
//
// NetworkState owns the state those kernels share — the Bell-pair count
// ledger, optional per-pair decay metadata (creation time + fidelity),
// the ParallelTickEngine worker pool, and the counter-based keyed RNG
// streams — so the protocol drivers in core/ (balancing, gossip, hybrid,
// fidelity) are reduced to sequencing kernels and supplying the
// protocol-defining decide/observe callbacks. The scheduling/ordering of
// swaps is the protocol's degree of freedom; the substrate is common.
//
// Determinism contract (inherited from the PR 3 engine): kernels draw
// randomness from streams keyed per (phase-tag, round, entity), shard
// work over contiguous index ranges, and merge all effects in canonical
// entity order — so results are bit-identical for every threads/shards
// setting. The two-level swap commit extends the contract: swaps whose
// node triples are disjoint commit in parallel (they touch disjoint
// ledger entries), conflicting swaps serialize in canonical rotating
// order, and the outcome equals the fully serial canonical commit.
//
// Incremental decide (tick.incremental_decide, default on): the decide
// kernel caches each node's last SwapCandidate in the candidate table and
// re-runs the decide callback only over the ledger's dirty frontier — the
// nodes whose readable counts changed since their last decision (marked
// by every ledger mutation: generation merges, swap commits, decoherence
// purges, consumption; gossip additionally marks view-install owners).
// The decide callback must be a pure function of the node's readable
// state (its own counts, the beneficiary counts / views of its partner
// pairs, and immutable protocol state) — then an unchanged readable view
// implies an unchanged decision, and the dirty-set decide is exactly
// equivalent to the full rescan at every threads/shards setting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/ledger.hpp"
#include "core/maxmin_balancer.hpp"
#include "graph/graph.hpp"
#include "sim/fault_plan.hpp"
#include "sim/pair_store.hpp"
#include "sim/parallel_engine.hpp"
#include "util/rng.hpp"

namespace poq::sim {

/// Decay model for tracked pairs (fidelity-aware protocols).
struct DecayModel {
  /// Memory decoherence time constant T (simulation time units).
  double memory_time_constant = 50.0;
  /// Below this fidelity a stored pair is useless and discarded.
  double usable_fidelity = 0.70;
};

class NetworkState {
 public:
  /// `tick` sizes the worker pool (threads=1 runs every kernel inline on
  /// the caller) and the kernels' chunking. Pass `decay` to track
  /// per-pair creation time/fidelity (the decohere kernel).
  NetworkState(const graph::Graph& generation_graph, std::uint64_t seed,
               const TickConcurrency& tick,
               std::optional<DecayModel> decay = std::nullopt);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t node_count() const { return ledger_.node_count(); }
  [[nodiscard]] const graph::Graph& generation_graph() const { return graph_; }
  [[nodiscard]] core::PairLedger& ledger() { return ledger_; }
  [[nodiscard]] const core::PairLedger& ledger() const { return ledger_; }
  /// Worker pool.
  [[nodiscard]] ParallelTickEngine& pool() { return *pool_; }
  /// Node shards resolved for this network.
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  /// Whether the decide kernel runs over the dirty frontier only.
  [[nodiscard]] bool incremental_decide() const {
    return tick_.incremental_decide;
  }
  /// Cumulative per-phase wall-clock spent in this state's kernels.
  /// Mutable so drivers with bespoke kernel loops (fidelity slices) can
  /// account their phases here too.
  [[nodiscard]] PhaseTimers& timers() { return timers_; }
  [[nodiscard]] const PhaseTimers& timers() const { return timers_; }

  // --- generation kernel ----------------------------------------------
  /// Add `rate` Bell pairs per generation edge (fractional rates use
  /// Bernoulli rounding). Each edge's rounding flag comes from a stream
  /// keyed (seed, generation-tag, round, edge) — batched per chunk
  /// through util::Rng::bernoulli_batch, bit-identical to the scalar
  /// draws — and merges into the ledger in canonical edge order via the
  /// batched PairLedger::add_edges. Integral rates skip the draw pass
  /// entirely and merge directly. Returns the number of pairs generated.
  std::uint64_t generate(std::uint32_t round, double rate);

  // --- fault phase ------------------------------------------------------
  /// Attach the driver's fault plan (may be null to detach). While a plan
  /// is attached, generate() scales the rate by the plan's current rate
  /// factor and masks unavailable edges out of the sweep. Masking never
  /// shifts another edge's keyed stream: the kernel still derives the
  /// per-(round, edge) rounding flag for every edge and only zeroes the
  /// merged amount, so the same plan trajectory yields bit-identical
  /// results at every threads/shards setting.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] const FaultPlan* fault_plan() const { return fault_plan_; }
  /// Crash purge: remove every stored pair the node shares — ledger
  /// counts via the sparse partner row (which marks readers per the
  /// dirty-set discipline) and, when pairs are tracked, the decay
  /// metadata buckets. Serial phase; returns the pairs purged.
  std::uint64_t purge_node(core::NodeId x);

  // --- swap decide kernel ---------------------------------------------
  /// Per-node swap choice against the frozen (post-generation) state.
  /// Must be pure on shared state; each invocation gets a caller-owned
  /// scratch.
  using DecideFn = std::function<std::optional<core::SwapCandidate>(
      core::NodeId, core::MaxMinBalancer::Scratch&)>;
  /// Refresh the candidate table: fan `decide` across dynamically
  /// scheduled chunks of the dirty frontier (incremental mode) or of
  /// every node (full-rescan mode) — chunk boundaries are canonical, so
  /// the schedule never affects results. Clean nodes keep their cached
  /// candidate, which by the purity contract equals what `decide` would
  /// return.
  void decide_swaps(const DecideFn& decide);
  [[nodiscard]] const std::vector<std::optional<core::SwapCandidate>>&
  candidates() const {
    return candidates_;
  }
  /// Nodes whose cached candidate is non-null, ascending. Maintained by
  /// decide_swaps (two-pointer merge of the dirty frontier into the
  /// previous list); commit_swaps enumerates only this list.
  [[nodiscard]] const std::vector<core::NodeId>& candidate_nodes() const {
    return candidate_nodes_;
  }
  /// Candidate-list entries visited by the last commit_swaps call, summed
  /// over its walks (grouping, member fill, stats). Test hook for the
  /// O(#candidates) contract: with a fixed candidate set this must not
  /// grow with the node count.
  [[nodiscard]] std::uint64_t last_commit_probes() const {
    return last_commit_probes_;
  }

  // --- two-level swap commit kernel -----------------------------------
  /// Re-validation of a decided swap against the live ledger, invoked
  /// immediately before execution. May run concurrently with re-checks
  /// and executions of swaps whose node triples are disjoint, so it must
  /// only read ledger entries among {node, left, right} (every §4-style
  /// predicate does) plus immutable protocol state.
  using RecheckFn =
      std::function<bool(core::NodeId, const core::SwapCandidate&)>;
  /// One executed swap, reported to `observe` in canonical rotating order.
  struct CommittedSwap {
    core::NodeId node = 0;
    core::SwapCandidate candidate;
    core::MaxMinBalancer::Execution execution;
  };
  using ObserveFn = std::function<void(const CommittedSwap&)>;
  struct CommitStats {
    std::uint64_t swaps = 0;
    std::uint64_t pairs_consumed = 0;  // donor pairs destroyed
    std::uint64_t pairs_produced = 0;  // one per swap
  };
  /// Commit the decided candidates. Level 1: candidates are grouped into
  /// conflict components (union-find over their node triples) and
  /// disjoint components commit in parallel across the pool. Level 2:
  /// within a component, members commit serially in canonical rotating
  /// order from `first`, each re-checked via `recheck` against the live
  /// ledger. Fractional-D rounding draws come from streams keyed
  /// (seed, swap-tag, attempt|round, node), so the outcome — including
  /// the stats and the `observe` callback sequence, both produced by a
  /// serial canonical walk afterwards — is bit-identical for every
  /// threads/shards setting and equal to a fully serial canonical commit.
  /// Cost is O(#candidates), not O(n): every walk enumerates the sorted
  /// candidate-node list rotated at `first` (identical visit order to the
  /// old filtered 0..n scan), and the union-find resets by version stamp
  /// instead of re-initializing all n slots.
  CommitStats commit_swaps(const core::MaxMinBalancer& balancer,
                           core::NodeId first, std::uint32_t round,
                           std::uint32_t attempt, const RecheckFn& recheck,
                           const ObserveFn& observe = {});

  // --- decay state + decohere kernel (decay model required) ------------
  [[nodiscard]] bool tracks_pairs() const { return decay_.has_value(); }
  [[nodiscard]] const DecayModel& decay() const;
  /// Current fidelity of a tracked pair under the decay model.
  [[nodiscard]] double fidelity_now(const TrackedPair& pair, double now) const;
  /// Store one pair between x and y (ledger count + metadata).
  void add_pair(core::NodeId x, core::NodeId y, double now, double fidelity);
  /// Remove and return the (x, y) pair chosen by the pairing policy:
  /// freshest = highest current fidelity, otherwise oldest creation time.
  /// The bucket must be non-empty (check the ledger count first).
  TrackedPair take_pair(core::NodeId x, core::NodeId y, double now,
                        bool freshest);
  /// Best current fidelity of the (x, y) bucket (0 when empty).
  [[nodiscard]] double best_fidelity(core::NodeId x, core::NodeId y,
                                     double now) const;
  /// Drop (x, y) pairs decayed below usable_fidelity at `now`; returns
  /// how many were dropped.
  std::uint64_t purge_pair_type(core::NodeId x, core::NodeId y, double now);
  /// Decohere kernel: purge every live bucket at `now`. The per-pair
  /// fidelity scan fans across dynamically scheduled node chunks — a
  /// bucket belongs to the chunk of its smaller endpoint, enumerated via
  /// the ledger partner rows, so only live pairs are ever visited
  /// (O(live pairs), not O(n^2)). Buckets own their metadata vectors, so
  /// compaction is chunk-local; the ledger updates apply on the caller by
  /// concatenating the per-chunk drop lists in chunk order, which is
  /// exactly ascending (x, y) — the same canonical order as a full
  /// triangular walk over the non-empty buckets. Returns the total pairs
  /// dropped.
  std::uint64_t decohere_all(double now);

  /// Deterministic logical bytes held by the simulation state (ledger
  /// rows, candidate/commit scratch, decay store). Element counts times
  /// fixed constants — bit-identical across compilers, so bench gates can
  /// compare memory-per-node at 1e-9 tolerance.
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  /// Chunk/shard bodies for the kernels. Their contexts live in members
  /// (not lambda captures) so the std::function handed to the pool stays
  /// within the small-object buffer — the hot path never allocates. The
  /// chunked kernels (generate, decide, decohere) go through the engine's
  /// dynamic chunk scheduler; commit keeps the one-shard-per-conflict-
  /// group mapping (groups are the unit of serial order).
  void generate_chunk(std::size_t begin, std::size_t end);
  void decide_chunk(std::size_t begin, std::size_t end, unsigned worker);
  void commit_group(std::size_t group);
  void decohere_chunk(std::size_t begin, std::size_t end);

  const graph::Graph& graph_;
  std::uint64_t seed_;
  TickConcurrency tick_;
  core::PairLedger ledger_;
  PhaseTimers timers_;

  std::unique_ptr<ParallelTickEngine> pool_;
  std::size_t shard_count_ = 1;
  // Decide scratch is pure per-invocation workspace, so one per pool
  // worker suffices under the chunk scheduler (results never depend on
  // which worker ran a chunk).
  std::vector<core::MaxMinBalancer::Scratch> worker_scratch_;
  // Per-edge Bernoulli rounding flags for fractional generation rates,
  // filled chunk-parallel by bernoulli_batch and merged through
  // add_edges (integral rates never touch it).
  std::vector<std::uint8_t> generation_flags_;
  // Per-edge merge amounts for the fault-masked generation path (sized on
  // first faulty generate; fault-free runs never touch it).
  std::vector<std::uint32_t> generation_amounts_;
  const FaultPlan* fault_plan_ = nullptr;
  // Scratch for purge_node's partner-row walk (the row mutates under the
  // removes).
  std::vector<core::NodeId> purge_partners_;
  std::vector<std::optional<core::SwapCandidate>> candidates_;  // per node
  // Per-node commit outcome slots (filled by concurrent groups, read by
  // the canonical walk; a node belongs to exactly one conflict group).
  std::vector<std::uint8_t> committed_;
  std::vector<core::MaxMinBalancer::Execution> executions_;
  // commit_swaps scratch: union-find + flat group membership (CSR-style:
  // members of group g live in group_members_[group_start_[g] ..
  // group_start_[g+1]), in canonical rotating order). All pre-sized at
  // construction; a commit allocates nothing. The union-find is
  // version-stamped: a slot whose stamp differs from the current commit
  // epoch reads as the singleton {x}, so a commit never pays an O(n)
  // reset — it touches only the nodes its candidates name.
  std::vector<core::NodeId> uf_parent_;
  std::vector<std::uint64_t> uf_version_;  // stamp of uf_parent_ validity
  std::uint64_t uf_epoch_ = 0;
  std::vector<std::int32_t> group_of_root_;
  std::vector<core::NodeId> touched_roots_;
  std::vector<std::uint32_t> group_start_;   // node_count + 1 slots
  std::vector<std::uint32_t> group_fill_;    // per-group fill cursor
  std::vector<core::NodeId> group_members_;  // flat member arena
  std::size_t group_count_ = 0;
  // Dirty frontier of the current decide call (pre-sized to node_count).
  std::vector<core::NodeId> dirty_nodes_;
  // Sorted list of nodes with a non-null cached candidate, plus the merge
  // scratch decide_swaps folds the frontier through. Both pre-sized; the
  // swap between them keeps the decide phase allocation-free.
  std::vector<core::NodeId> candidate_nodes_;
  std::vector<core::NodeId> candidate_scratch_;
  std::uint64_t last_commit_probes_ = 0;
  // Per-kernel contexts (see the chunk bodies above), plus the fixed
  // chunk grains each kernel resolved at construction (grain is a pure
  // performance knob; an explicit shards setting keeps its partitioning
  // meaning through ParallelTickEngine::resolve_grain).
  std::size_t generate_grain_ = 1;
  std::size_t decide_grain_ = 1;
  std::size_t decohere_grain_ = 1;
  std::uint32_t gen_round_ = 0;
  double gen_frac_ = 0.0;
  const DecideFn* decide_fn_ = nullptr;
  const core::MaxMinBalancer* commit_balancer_ = nullptr;
  const RecheckFn* commit_recheck_ = nullptr;
  std::uint32_t commit_round_ = 0;
  std::uint32_t commit_attempt_ = 0;
  double decohere_now_ = 0.0;

  // Decay state (tracks_pairs() only): sparse metadata buckets keyed by
  // live pairs, mirroring the ledger counts (bucket size == count).
  std::optional<DecayModel> decay_;
  std::optional<PairStore> pair_store_;
  /// One (x, y, dropped) record per bucket the decohere scan purged from;
  /// per-chunk lists so the concurrent phase appends without contention
  /// and the serial merge replays canonical (x, y) order by walking the
  /// lists in chunk order. Capacities persist across rounds (steady state
  /// appends only).
  struct PurgeEntry {
    core::NodeId x = 0;
    core::NodeId y = 0;
    std::uint32_t dropped = 0;
  };
  std::vector<std::vector<PurgeEntry>> purge_entries_;  // per chunk
};

}  // namespace poq::sim
