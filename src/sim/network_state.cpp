#include "sim/network_state.hpp"

#include <algorithm>
#include <cmath>

#include "quantum/werner.hpp"
#include "util/error.hpp"

namespace poq::sim {

namespace {

// Default chunk grains (entities per chunk) for the dynamically
// scheduled kernels, tuned for cheap-per-entity generation flags vs the
// partner-scan-heavy decide and the exp()-heavy decohere. Pure
// performance constants — never part of the determinism contract.
constexpr std::size_t kGenerateGrain = 2048;
constexpr std::size_t kDecideGrain = 64;
constexpr std::size_t kDecohereGrain = 256;

}  // namespace

NetworkState::NetworkState(const graph::Graph& generation_graph,
                           std::uint64_t seed, const TickConcurrency& tick,
                           std::optional<DecayModel> decay)
    : graph_(generation_graph),
      seed_(seed),
      tick_(tick),
      ledger_(generation_graph.node_count()),
      pool_(std::make_unique<ParallelTickEngine>(tick.threads)),
      shard_count_(pool_->resolve_shards(tick.shards,
                                         generation_graph.node_count())),
      decay_(decay) {
  const std::size_t n = graph_.node_count();
  // Decide scratch is per pool worker (chunks of the frontier are
  // claimed dynamically; any worker may run any chunk, and scratch
  // never leaks into results).
  worker_scratch_.resize(pool_->thread_count());
  // Pre-size every per-round scratch once: the steady-state round
  // allocates nothing (asserted by the hot-path allocation test). The
  // eligible list is bounded by a node's partner degree, so megascale
  // networks cap the reserve at the full-reserve limit — on sparse
  // topologies degrees never approach it, and a denser node just grows
  // its worker's scratch once, amortized.
  const std::size_t scratch_nodes =
      std::min(n, core::PairLedger::kFullReserveNodeLimit + 1);
  for (core::MaxMinBalancer::Scratch& scratch : worker_scratch_) {
    scratch.reserve(scratch_nodes);
  }
  generation_flags_.assign(graph_.edge_count(), 0);
  // Chunk grains for the dynamically scheduled kernels. Fixed ranges
  // (edges, all nodes) resolve once here; the decide grain resolves per
  // call against the live frontier size. Grain is a pure performance
  // knob — chunk boundaries are canonical, results never move.
  generate_grain_ = ParallelTickEngine::resolve_grain(
      tick_.shards, graph_.edge_count(), kGenerateGrain);
  decohere_grain_ =
      ParallelTickEngine::resolve_grain(tick_.shards, n, kDecohereGrain);
  candidates_.assign(n, std::nullopt);
  committed_.assign(n, 0);
  executions_.resize(n);
  uf_parent_.resize(n);
  uf_version_.assign(n, 0);
  group_of_root_.assign(n, -1);
  touched_roots_.reserve(n);
  group_start_.assign(n + 1, 0);
  group_fill_.assign(n, 0);
  group_members_.assign(n, 0);
  dirty_nodes_.reserve(n);
  candidate_nodes_.reserve(n);
  candidate_scratch_.reserve(n);
  // The incremental decide consumes the ledger's dirty frontier; every
  // node starts dirty so the first decide computes the full table.
  // Full-rescan mode leaves tracking off entirely — it re-decides every
  // node anyway, so it should not pay the per-mutation marking either.
  if (tick_.incremental_decide) ledger_.enable_dirty_tracking();
  if (decay_) {
    pair_store_.emplace(graph_.node_count());
    // One drop list per decohere chunk (the chunk count is fixed: nodes
    // and grain never change after construction).
    purge_entries_.resize((graph_.node_count() + decohere_grain_ - 1) /
                          decohere_grain_);
  }
}

void NetworkState::generate_chunk(std::size_t begin, std::size_t end) {
  // One batched draw over the chunk's edge range: bernoulli_batch is
  // element-for-element the scalar keyed(seed, tag, round, e).bernoulli
  // decision, so the flags are identical however the range is chunked.
  util::Rng::bernoulli_batch(
      seed_, stream_tag::kGeneration, gen_round_, begin, gen_frac_,
      std::span<std::uint8_t>(generation_flags_.data() + begin, end - begin));
}

std::uint64_t NetworkState::generate(std::uint32_t round, double rate) {
  const PhaseStopwatch stopwatch(timers_.generate_ns);
  // Fault phase: the plan's per-round rate factor scales the rate before
  // the whole/fraction split, and unavailable edges are masked out of the
  // merge below.
  const bool faulty = fault_plan_ != nullptr;
  if (faulty) rate *= fault_plan_->rate_factor();
  const bool masked = faulty && fault_plan_->any_edge_down();
  const double whole = std::floor(rate);
  const double frac = rate - whole;
  const auto whole_amount = static_cast<std::uint32_t>(whole);
  // The merge runs on the caller in canonical edge order through the
  // ledger's batched add_edges (adds commute, but a fixed order keeps the
  // ledger internals single-threaded here; the batch hoists the global
  // bookkeeping without changing any observable state).
  const std::span<const graph::Edge> edges(graph_.edges());
  if (frac > 0.0) {
    // Fractional rate: each edge's rounding flag comes from its own stream
    // keyed (seed, tag, round, edge), batch-derived over dynamically
    // scheduled chunks into disjoint slices of generation_flags_. Masked
    // edges still get their flag derived (so masking never shifts another
    // edge's stream); only their merged amount is zeroed.
    gen_round_ = round;
    gen_frac_ = frac;
    pool_->run_chunks(edges.size(), generate_grain_, &timers_.generate_load,
                      [this](std::size_t begin, std::size_t end, unsigned) {
                        generate_chunk(begin, end);
                      });
    if (!masked) return ledger_.add_edges(edges, whole_amount, generation_flags_);
  } else {
    // Integral rate: every edge adds the same amount — no draws at all,
    // straight to the merge (the hot regime of the megascale cells).
    if (whole_amount == 0) return 0;
    if (!masked) return ledger_.add_edges(edges, whole_amount);
  }
  // Masked merge: per-edge amounts with zeros for unavailable edges.
  generation_amounts_.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    std::uint32_t amount = whole_amount;
    if (frac > 0.0) amount += generation_flags_[e];
    generation_amounts_[e] = fault_plan_->edge_up(e) ? amount : 0;
  }
  return ledger_.add_edges(edges, generation_amounts_);
}

std::uint64_t NetworkState::purge_node(core::NodeId x) {
  // Copy the partner row first: remove() mutates it. Each remove goes
  // through the ledger's normal path, so histogram, totals and dirty-set
  // reader marks stay exact.
  const std::span<const core::NodeId> row = ledger_.partners(x);
  purge_partners_.assign(row.begin(), row.end());
  std::uint64_t purged = 0;
  for (const core::NodeId y : purge_partners_) {
    const std::uint32_t count = ledger_.count(x, y);
    if (count == 0) continue;
    if (pair_store_) {
      if (std::vector<TrackedPair>* bucket = pair_store_->find(x, y)) {
        bucket->clear();
      }
    }
    ledger_.remove(x, y, count);
    purged += count;
  }
  return purged;
}

void NetworkState::decide_chunk(std::size_t begin, std::size_t end,
                                unsigned worker) {
  // Scratch is indexed by worker, not chunk: it is pure workspace, so the
  // dynamic chunk-to-worker assignment never reaches a result.
  core::MaxMinBalancer::Scratch& scratch = worker_scratch_[worker];
  for (std::size_t i = begin; i < end; ++i) {
    const core::NodeId x = dirty_nodes_[i];
    candidates_[x] = (*decide_fn_)(x, scratch);
  }
}

void NetworkState::decide_swaps(const DecideFn& decide) {
  const PhaseStopwatch stopwatch(timers_.decide_ns);
  // The frontier: only nodes whose readable counts (or views — the
  // protocol marks those itself) changed since their last decision. A
  // clean node's cached candidate is exactly what `decide` would return,
  // so recomputing the frontier alone equals the full rescan. Full-rescan
  // mode (no dirty tracking) simply makes the frontier everything.
  dirty_nodes_.clear();
  if (tick_.incremental_decide) {
    ledger_.drain_dirty(dirty_nodes_);
    if (dirty_nodes_.empty()) return;
  } else {
    const auto n = static_cast<core::NodeId>(graph_.node_count());
    for (core::NodeId x = 0; x < n; ++x) dirty_nodes_.push_back(x);
  }
  decide_fn_ = &decide;
  // The grain resolves against the live frontier size (an explicit
  // shards knob keeps its partitioning meaning); a frontier within one
  // grain hits the engine's inline fast path, so a 1-node decide still
  // skips the pool handshake. Chunking never affects results.
  const std::size_t grain = ParallelTickEngine::resolve_grain(
      tick_.shards, dirty_nodes_.size(), kDecideGrain);
  pool_->run_chunks(dirty_nodes_.size(), grain, &timers_.decide_load,
                    [this](std::size_t begin, std::size_t end,
                           unsigned worker) {
                      decide_chunk(begin, end, worker);
                    });
  decide_fn_ = nullptr;
  // Fold the frontier into the sorted candidate-node list (two-pointer
  // merge, both inputs ascending): frontier nodes are re-tested against
  // their freshly computed candidate, everything else carries over. The
  // commit enumerates this list instead of scanning all n nodes.
  candidate_scratch_.clear();
  std::size_t old_i = 0;
  std::size_t new_j = 0;
  while (old_i < candidate_nodes_.size() || new_j < dirty_nodes_.size()) {
    if (new_j == dirty_nodes_.size() ||
        (old_i < candidate_nodes_.size() &&
         candidate_nodes_[old_i] < dirty_nodes_[new_j])) {
      candidate_scratch_.push_back(candidate_nodes_[old_i++]);
      continue;
    }
    const core::NodeId x = dirty_nodes_[new_j++];
    if (old_i < candidate_nodes_.size() && candidate_nodes_[old_i] == x) {
      ++old_i;
    }
    if (candidates_[x].has_value()) candidate_scratch_.push_back(x);
  }
  candidate_nodes_.swap(candidate_scratch_);
}

void NetworkState::commit_group(std::size_t group) {
  for (std::uint32_t slot = group_start_[group];
       slot < group_start_[group + 1]; ++slot) {
    const core::NodeId x = group_members_[slot];
    const core::SwapCandidate& candidate = *candidates_[x];
    if (!(*commit_recheck_)(x, candidate)) continue;
    // Key packs (attempt, round) without collision: rounds is 32-bit.
    util::Rng commit_rng = util::Rng::keyed(
        seed_, stream_tag::kSwap,
        (static_cast<std::uint64_t>(commit_attempt_) << 32) | commit_round_, x);
    executions_[x] = commit_balancer_->execute_swap(
        ledger_, x, candidate.left, candidate.right, commit_rng);
    committed_[x] = 1;
  }
}

NetworkState::CommitStats NetworkState::commit_swaps(
    const core::MaxMinBalancer& balancer, core::NodeId first,
    std::uint32_t round, std::uint32_t attempt, const RecheckFn& recheck,
    const ObserveFn& observe) {
  const PhaseStopwatch stopwatch(timers_.commit_ns);
  last_commit_probes_ = 0;
  // Quiescent fast path: nothing decided anywhere, nothing to group.
  if (candidate_nodes_.empty()) return CommitStats{};

  // Every walk below enumerates the sorted candidate-node list rotated at
  // `first` — the same visit order as filtering a (first + offset) % n
  // scan, at O(#candidates) instead of O(n).
  const auto split = static_cast<std::size_t>(
      std::lower_bound(candidate_nodes_.begin(), candidate_nodes_.end(),
                       first) -
      candidate_nodes_.begin());
  const std::size_t list_size = candidate_nodes_.size();
  const auto rotated = [&](std::size_t i) {
    const std::size_t at = split + i;
    return candidate_nodes_[at < list_size ? at : at - list_size];
  };

  // Level-1 grouping: union the node triple of every candidate; swaps in
  // different components touch disjoint ledger entries (a pair entry
  // (a, b) is touched only when both endpoints are in the triple), so
  // components are fully independent and their commits commute. The
  // union-find is version-stamped: a slot last written under an older
  // epoch reads as the singleton {x}, so no O(n) reset is ever paid.
  if (++uf_epoch_ == 0) {  // stamp wrap: invalidate everything once
    std::fill(uf_version_.begin(), uf_version_.end(), 0);
    uf_epoch_ = 1;
  }
  const auto find = [&](core::NodeId x) {
    if (uf_version_[x] != uf_epoch_) {
      uf_version_[x] = uf_epoch_;
      uf_parent_[x] = x;
      return x;
    }
    // Parent chains only ever link nodes united this epoch, so the walk
    // below never reads a stale slot.
    while (uf_parent_[x] != x) {
      uf_parent_[x] = uf_parent_[uf_parent_[x]];  // path halving
      x = uf_parent_[x];
    }
    return x;
  };
  const auto unite = [&](core::NodeId a, core::NodeId b) {
    a = find(a);
    b = find(b);
    if (a != b) uf_parent_[b] = a;
  };
  for (const core::NodeId x : candidate_nodes_) {
    ++last_commit_probes_;
    committed_[x] = 0;
    unite(x, candidates_[x]->left);
    unite(x, candidates_[x]->right);
  }
  CommitStats stats;

  // Enumerate components in canonical rotating order of their first
  // member, members in rotating order too — grouping depends only on the
  // candidate table, never on the worker schedule. Two passes over the
  // pre-sized flat arrays (assign group ids + sizes, then fill members)
  // keep the commit allocation-free.
  group_count_ = 0;
  touched_roots_.clear();
  for (std::size_t i = 0; i < list_size; ++i) {
    ++last_commit_probes_;
    const core::NodeId x = rotated(i);
    const core::NodeId root = find(x);
    std::int32_t group = group_of_root_[root];
    if (group < 0) {
      group = static_cast<std::int32_t>(group_count_++);
      group_of_root_[root] = group;
      touched_roots_.push_back(root);
      group_start_[static_cast<std::size_t>(group) + 1] = 0;
    }
    ++group_start_[static_cast<std::size_t>(group) + 1];
  }
  group_start_[0] = 0;
  for (std::size_t g = 0; g < group_count_; ++g) {
    group_start_[g + 1] += group_start_[g];
    group_fill_[g] = group_start_[g];
  }
  for (std::size_t i = 0; i < list_size; ++i) {
    ++last_commit_probes_;
    const core::NodeId x = rotated(i);
    const auto group = static_cast<std::size_t>(group_of_root_[find(x)]);
    group_members_[group_fill_[group]++] = x;
  }
  for (const core::NodeId root : touched_roots_) group_of_root_[root] = -1;

  // Level 2: each component commits serially in its canonical member
  // order; disjoint components fan across the pool. Re-checks read only
  // entries within the member's triple, so concurrent components never
  // interfere, and the outcome equals the fully serial canonical commit.
  commit_balancer_ = &balancer;
  commit_recheck_ = &recheck;
  commit_round_ = round;
  commit_attempt_ = attempt;
  pool_->run_shards(group_count_,
                    [this](std::size_t group) { commit_group(group); });
  commit_balancer_ = nullptr;
  commit_recheck_ = nullptr;

  // Serial canonical walk: accumulate stats and report executed swaps in
  // exactly the order a serial commit would have produced them, so even
  // floating-point accumulation in `observe` is schedule-independent.
  for (std::size_t i = 0; i < list_size; ++i) {
    ++last_commit_probes_;
    const core::NodeId x = rotated(i);
    if (!committed_[x]) continue;
    ++stats.swaps;
    stats.pairs_consumed +=
        executions_[x].consumed_left + executions_[x].consumed_right;
    ++stats.pairs_produced;
    if (observe) observe(CommittedSwap{x, *candidates_[x], executions_[x]});
  }
  return stats;
}

const DecayModel& NetworkState::decay() const {
  require(decay_.has_value(), "NetworkState: no decay model configured");
  return *decay_;
}

double NetworkState::fidelity_now(const TrackedPair& pair, double now) const {
  // The sharded slice kernels apply a whole slice's arrivals up front, so
  // an event earlier in the slice can observe a pair time-stamped after
  // it; such a pair simply has not decayed yet.
  const double elapsed = std::max(0.0, now - pair.created);
  return quantum::decohered_fidelity(pair.initial_fidelity, elapsed,
                                     decay().memory_time_constant);
}

void NetworkState::add_pair(core::NodeId x, core::NodeId y, double now,
                            double fidelity) {
  require(decay_.has_value(), "NetworkState::add_pair: decay tracking is off");
  pair_store_->bucket(x, y).push_back(TrackedPair{now, fidelity});
  ledger_.add(x, y, 1);
}

TrackedPair NetworkState::take_pair(core::NodeId x, core::NodeId y, double now,
                                    bool freshest) {
  std::vector<TrackedPair>* slot = pair_store_->find(x, y);
  ensure(slot != nullptr && !slot->empty(),
         "NetworkState::take_pair: bucket empty");
  std::vector<TrackedPair>& bucket = *slot;
  std::size_t chosen = 0;
  for (std::size_t i = 1; i < bucket.size(); ++i) {
    if (freshest ? fidelity_now(bucket[i], now) > fidelity_now(bucket[chosen], now)
                 : bucket[i].created < bucket[chosen].created) {
      chosen = i;
    }
  }
  const TrackedPair pair = bucket[chosen];
  bucket.erase(bucket.begin() + static_cast<long>(chosen));
  ledger_.remove(x, y, 1);
  return pair;
}

double NetworkState::best_fidelity(core::NodeId x, core::NodeId y,
                                   double now) const {
  const std::vector<TrackedPair>* bucket = pair_store_->find(x, y);
  if (bucket == nullptr) return 0.0;
  double best = 0.0;
  for (const TrackedPair& pair : *bucket) {
    best = std::max(best, fidelity_now(pair, now));
  }
  return best;
}

std::uint64_t NetworkState::purge_pair_type(core::NodeId x, core::NodeId y,
                                            double now) {
  std::vector<TrackedPair>* slot = pair_store_->find(x, y);
  if (slot == nullptr) return 0;
  std::vector<TrackedPair>& bucket = *slot;
  std::uint64_t dropped = 0;
  for (std::size_t i = bucket.size(); i-- > 0;) {
    if (fidelity_now(bucket[i], now) < decay().usable_fidelity) {
      bucket.erase(bucket.begin() + static_cast<long>(i));
      ledger_.remove(x, y, 1);
      ++dropped;
    }
  }
  return dropped;
}

void NetworkState::decohere_chunk(std::size_t begin, std::size_t end) {
  // A bucket belongs to the chunk of its smaller endpoint; the live pairs
  // of a node come from its ledger partner row (read-only here), so the
  // scan touches exactly the live buckets — never n^2 of them. Buckets of
  // different chunks are disjoint, so compaction is race-free.
  const double usable = decay().usable_fidelity;
  std::vector<PurgeEntry>& drops = purge_entries_[begin / decohere_grain_];
  drops.clear();
  for (auto x = static_cast<core::NodeId>(begin); x < end; ++x) {
    for (const core::NodeId y : ledger_.partners(x)) {
      if (y <= x) continue;  // owned by y's shard when y < x
      std::vector<TrackedPair>* slot = pair_store_->find(x, y);
      if (slot == nullptr || slot->empty()) continue;
      std::vector<TrackedPair>& bucket = *slot;
      std::uint32_t dropped = 0;
      for (std::size_t i = bucket.size(); i-- > 0;) {
        if (fidelity_now(bucket[i], decohere_now_) < usable) {
          bucket.erase(bucket.begin() + static_cast<long>(i));
          ++dropped;
        }
      }
      if (dropped > 0) drops.push_back(PurgeEntry{x, y, dropped});
    }
  }
}

std::uint64_t NetworkState::decohere_all(double now) {
  require(decay_.has_value(), "NetworkState::decohere_all: decay tracking off");
  const PhaseStopwatch stopwatch(timers_.decohere_ns);
  // Phase 1 (chunked over nodes): the exp()-heavy fidelity scan; each
  // bucket compacts its own metadata vector, a bucket-local effect.
  decohere_now_ = now;
  pool_->run_chunks(graph_.node_count(), decohere_grain_,
                    &timers_.decohere_load,
                    [this](std::size_t begin, std::size_t end, unsigned) {
                      decohere_chunk(begin, end);
                    });
  // Phase 2 (serial, canonical bucket order): ledger updates — buckets
  // sharing an endpoint touch the same partner row, so these stay on the
  // caller. Chunk ranges are contiguous ascending node ranges and each
  // chunk's drop list ascends in (x, y), so concatenating the lists in
  // chunk order replays exactly the ascending-(x, y) walk the dense
  // triangle produced — bit-identical remove sequence at every
  // threads/shards setting.
  std::uint64_t total_dropped = 0;
  for (const std::vector<PurgeEntry>& drops : purge_entries_) {
    for (const PurgeEntry& entry : drops) {
      ledger_.remove(entry.x, entry.y, entry.dropped);
      total_dropped += entry.dropped;
    }
  }
  return total_dropped;
}

std::uint64_t NetworkState::memory_bytes() const {
  std::uint64_t bytes = ledger_.memory_bytes();
  // Per-node kernel scratch (candidate table, commit outcome slots,
  // union-find, group arenas, frontier/candidate lists): fixed logical
  // bytes per node, plus one generation slot per edge.
  constexpr std::uint64_t kScratchPerNodeBytes = 72;
  bytes += kScratchPerNodeBytes * graph_.node_count();
  bytes += sizeof(std::uint32_t) *
           static_cast<std::uint64_t>(graph_.edge_count());
  if (pair_store_) bytes += pair_store_->memory_bytes();
  return bytes;
}

}  // namespace poq::sim
