// The incremental dirty-set decide contract: re-running best_swap only
// over the nodes whose readable counts (or views) changed produces round
// trajectories bit-identical to a full rescan of every node — for every
// phase-kernel protocol, at every threads/shards setting — and the
// steady-state round allocates nothing on the heap after warm-up.
//
// The equivalence leans on the candidate-cache invariant
// (docs/ARCHITECTURE.md): the decide callback is a pure function of a
// node's readable state, every ledger mutation marks exactly the nodes
// whose readable state it changed (endpoints above the eligibility
// threshold + eligible common partners), and gossip marks view-install
// owners — so a clean node's cached candidate equals what a rescan would
// recompute.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/maxmin_balancer.hpp"
#include "core/workload.hpp"
#include "graph/topology.hpp"
#include "scenario/protocol.hpp"
#include "sim/network_state.hpp"
#include "sim/parallel_engine.hpp"
#include "util/rng.hpp"

// --- allocation counter -----------------------------------------------
// Global operator new/delete overrides counting every heap allocation in
// the test binary. The hot-path test warms a simulation up, snapshots the
// counter, and asserts that steady-state rounds allocate nothing.
//
// GCC cannot see that the malloc-backed new and the free-backed delete
// below are a matched pair once it inlines both sides of a container's
// lifetime into one test body, so it flags the override itself.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// TSan's runtime allocates behind the program's back (interceptors,
// shadow bookkeeping), so heap-silence assertions only hold uninstrumented.
#if defined(__SANITIZE_THREAD__)
#define POQ_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POQ_UNDER_TSAN 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants size to be a multiple of the alignment.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace poq::scenario {
namespace {

std::string run_dump(ScenarioSpec spec, const std::string& decide,
                     std::int64_t threads, std::int64_t shards) {
  spec.knobs["decide"] = decide;
  spec.knobs["threads"] = threads;
  spec.knobs["shards"] = shards;
  // to_json(false): phase_ms.* wall-clock is outside the contract.
  return registry().run(spec.protocol, spec).to_json(false).dump(2);
}

/// Randomized scenario frames drawn from a fixed meta-seed: topology
/// family, size, rates, distillation, and per-protocol knobs all vary.
ScenarioSpec fuzz_spec(const std::string& protocol, util::Rng& fuzz) {
  ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = fuzz.bernoulli(0.5) ? "random-grid" : "cycle";
  const std::size_t sizes[] = {9, 16, 25};
  spec.nodes = sizes[fuzz.uniform_index(3)];
  spec.consumer_pairs = 6 + fuzz.uniform_index(10);
  spec.requests = 20 + fuzz.uniform_index(30);
  spec.seed = 1 + fuzz.uniform_index(1000);
  if (protocol == "fidelity") {
    spec.knobs["duration"] = 30.0 + static_cast<double>(fuzz.uniform_index(3)) * 15.0;
    spec.knobs["memory-T"] = fuzz.bernoulli(0.5) ? 30.0 : 80.0;
  } else {
    spec.knobs["max-rounds"] = std::int64_t{2000};
    const double rates[] = {0.05, 0.3, 1.0, 1.6};
    spec.knobs["generation-rate"] = rates[fuzz.uniform_index(4)];
    const double distillations[] = {1.0, 1.5, 2.0};
    spec.knobs["distillation"] = distillations[fuzz.uniform_index(3)];
    if (protocol == "gossip") {
      spec.knobs["fanout"] = static_cast<std::int64_t>(1 + fuzz.uniform_index(3));
      spec.knobs["latency"] = fuzz.bernoulli(0.5) ? 1.0 : 2.0;
    }
  }
  return spec;
}

TEST(IncrementalDecide, FuzzBitIdenticalToFullRescan) {
  // protocols {balancing, gossip, fidelity} x threads {1,8} x shards
  // {1,16} on randomized frames: the dirty-set decide must reproduce the
  // forced full rescan bit for bit, at every concurrency setting.
  util::Rng fuzz(0xD1E7);
  const std::vector<std::string> protocols = {"balancing", "gossip",
                                              "fidelity"};
  for (int trial = 0; trial < 3; ++trial) {
    for (const std::string& protocol : protocols) {
      const ScenarioSpec spec = fuzz_spec(protocol, fuzz);
      for (const std::int64_t threads : {1, 8}) {
        for (const std::int64_t shards : {1, 16}) {
          const std::string incremental =
              run_dump(spec, "incremental", threads, shards);
          const std::string full = run_dump(spec, "full", threads, shards);
          EXPECT_EQ(incremental, full)
              << protocol << " trial " << trial << " diverged at threads="
              << threads << " shards=" << shards << "\nspec: "
              << spec.to_json().dump(2);
        }
      }
    }
  }
}

TEST(IncrementalDecide, SparseSteadyStateStaysIdentical) {
  // The regime the hot path is built for: rare generation events on a
  // larger grid, long horizon, tiny dirty frontier — plus a fractional
  // distillation so commit-time rounding draws stay exercised.
  ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = "random-grid";
  spec.nodes = 100;
  spec.consumer_pairs = 20;
  spec.requests = 5000;
  spec.seed = 7;
  spec.knobs["max-rounds"] = std::int64_t{4000};
  spec.knobs["generation-rate"] = 0.02;
  spec.knobs["distillation"] = 1.5;
  for (const std::int64_t threads : {1, 8}) {
    EXPECT_EQ(run_dump(spec, "incremental", threads, 16),
              run_dump(spec, "full", threads, 16))
        << "threads=" << threads;
  }
}

// --- lockstep round trajectories --------------------------------------

std::string ledger_dump(const core::PairLedger& ledger) {
  std::string out;
  const auto n = static_cast<core::NodeId>(ledger.node_count());
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      out += std::to_string(ledger.count(x, y)) + ",";
    }
  }
  return out;
}

TEST(IncrementalDecide, RoundTrajectoriesMatchFullRescan) {
  // Stronger than end-metrics equality: the full count matrix must match
  // after every single round, so a divergence cannot cancel out later.
  util::Rng topology_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(49, topology_rng);
  util::Rng workload_rng(5);
  const core::Workload workload =
      core::make_uniform_workload(49, 20, 100000, workload_rng);
  core::BalancingConfig config;
  config.generation_per_edge_per_round = 0.4;
  config.seed = 11;
  config.tick.threads = 2;
  config.tick.shards = 8;
  core::BalancingConfig full_config = config;
  full_config.tick.incremental_decide = false;
  core::BalancingSimulation incremental(graph, workload, config);
  core::BalancingSimulation full(graph, workload, full_config);
  for (int round = 0; round < 400; ++round) {
    incremental.step_round();
    full.step_round();
    ASSERT_EQ(ledger_dump(incremental.ledger()), ledger_dump(full.ledger()))
        << "count matrices diverged at round " << round;
    ASSERT_EQ(incremental.result().swaps_performed,
              full.result().swaps_performed)
        << "swap counts diverged at round " << round;
  }
}

// --- zero-allocation steady state -------------------------------------

TEST(HotPathAllocations, SteadyStateRoundAllocatesNothing) {
  // After warm-up, a balancing round on the sharded engine — generation
  // (fractional rate: batched keyed streams exercised), dirty-set decide,
  // two-level commit, consumption — must not touch the heap: all
  // per-round scratch is pre-sized, the CSR partner arena mutates in
  // place, and the pool recycles its job allocation. shards=8 forces the
  // chunk grain small enough that every phase goes through the dynamic
  // work-stealing dispatch (multiple chunks claimed off the atomic
  // cursor), so the chunked scheduler path is held to the same
  // zero-allocation contract as the inline path.
#ifdef POQ_UNDER_TSAN
  GTEST_SKIP() << "the TSan runtime allocates behind the program's back, "
                  "so a heap-silence assertion is meaningless under it";
#endif
  for (const unsigned threads : {1u, 2u}) {
    for (const unsigned shards : {0u, 8u}) {
      util::Rng topology_rng(3);
      const graph::Graph graph =
          graph::make_random_connected_grid(49, topology_rng);
      util::Rng workload_rng(5);
      const core::Workload workload =
          core::make_uniform_workload(49, 20, 100000, workload_rng);
      core::BalancingConfig config;
      config.generation_per_edge_per_round = 0.5;
      config.seed = 9;
      config.tick.threads = threads;
      config.tick.shards = shards;
      core::BalancingSimulation sim(graph, workload, config);
      for (int round = 0; round < 300; ++round) sim.step_round();
      const std::uint64_t before =
          g_allocation_count.load(std::memory_order_relaxed);
      for (int round = 0; round < 200; ++round) sim.step_round();
      const std::uint64_t after =
          g_allocation_count.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0u)
          << (after - before) << " allocations in 200 steady-state rounds at "
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(HotPathAllocations, DispatchWithLaggingWorkerAllocatesNothing) {
  // Dispatch stress: the pool worker is held back at the end of every
  // phase, so it is still leaving phase g (about to make its next claim)
  // while the caller publishes phase g+1. Each phase has two chunks: the
  // caller's chunk waits until the worker has claimed the other one, and
  // the worker then holds its chunk a little longer, so it finishes last
  // every time. The engine must neither allocate for the next phase nor
  // let the lagging worker run (or swallow) one of its indices. Under
  // TSan only the exactly-once half is asserted (its runtime allocates).
  sim::ParallelTickEngine engine(2);
  std::atomic<std::uint32_t> runs[2] = {0, 0};
  std::atomic<bool> worker_claimed{false};
  const sim::ParallelTickEngine::ChunkFn chunk_fn =
      [&](std::size_t begin, std::size_t, unsigned worker) {
        runs[begin].fetch_add(1, std::memory_order_relaxed);
        if (worker == 0) {
          while (!worker_claimed.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        } else {
          worker_claimed.store(true, std::memory_order_release);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      };
  engine.run_chunks(2, 1, nullptr, chunk_fn);  // warm-up
  constexpr int kPhases = 2000;
  int bad_phases = 0;
  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int phase = 0; phase < kPhases; ++phase) {
    runs[0].store(0, std::memory_order_relaxed);
    runs[1].store(0, std::memory_order_relaxed);
    worker_claimed.store(false, std::memory_order_relaxed);
    engine.run_chunks(2, 1, nullptr, chunk_fn);
    if (runs[0].load(std::memory_order_relaxed) != 1 ||
        runs[1].load(std::memory_order_relaxed) != 1) {
      ++bad_phases;
    }
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(bad_phases, 0) << "phases whose two chunks did not run exactly once";
#ifndef POQ_UNDER_TSAN
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations in " << kPhases
      << " dispatches with a lagging worker";
#else
  (void)before;
  (void)after;
#endif
}

// --- O(#candidates) commit --------------------------------------------

/// Probe count of one decide + commit with exactly 16 candidates (nodes
/// 1, 5, ..., 61 of a cycle of `nodes`), in the allocation-counting
/// spirit above: the counter proves no hidden O(n) scan, not just that
/// the result is right.
std::uint64_t commit_probes(std::size_t nodes) {
  const graph::Graph graph = graph::make_cycle(nodes);
  sim::TickConcurrency tick;
  tick.threads = 1;
  sim::NetworkState state(graph, 1, tick);
  state.decide_swaps(
      [&](core::NodeId x, core::MaxMinBalancer::Scratch&)
          -> std::optional<core::SwapCandidate> {
        if (x < 64 && x % 4 == 1) {
          return core::SwapCandidate{x - 1, x + 1, 1};
        }
        return std::nullopt;
      });
  (void)state.commit_swaps(
      core::MaxMinBalancer(core::DistillationMatrix(1.0)), /*first=*/0, /*round=*/0, /*attempt=*/0,
      [](core::NodeId, const core::SwapCandidate&) { return false; });
  return state.last_commit_probes();
}

TEST(HotPathAllocations, CommitCostTracksCandidatesNotNodes) {
  // The same 16 decided candidates on a 64-node and a 4096-node network:
  // the commit's probe count (candidate-list entries visited across its
  // grouping/fill/stats walks) must not move with the node count — the
  // old implementation walked all n nodes three times per attempt.
  const std::uint64_t small = commit_probes(64);
  const std::uint64_t large = commit_probes(4096);
  EXPECT_EQ(small, large)
      << "commit probes scaled with node count: " << small << " at n=64 vs "
      << large << " at n=4096";
  // And the absolute count is a small multiple of #candidates (16): the
  // four walks visit each candidate once.
  EXPECT_LE(large, 16u * 4u);
  EXPECT_GE(large, 16u);
}

TEST(HotPathAllocations, QuiescentCommitIsFree) {
  // No candidates decided anywhere: the commit must return without
  // probing at all (the empty-list fast path).
  const graph::Graph graph = graph::make_cycle(32);
  sim::TickConcurrency tick;
  tick.threads = 1;
  sim::NetworkState state(graph, 1, tick);
  state.decide_swaps([](core::NodeId, core::MaxMinBalancer::Scratch&)
                         -> std::optional<core::SwapCandidate> {
    return std::nullopt;
  });
  const auto stats = state.commit_swaps(
      core::MaxMinBalancer(core::DistillationMatrix(1.0)), 0, 0, 0,
      [](core::NodeId, const core::SwapCandidate&) { return true; });
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(state.last_commit_probes(), 0u);
}

}  // namespace
}  // namespace poq::scenario
