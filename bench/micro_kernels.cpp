// Microbenchmarks for poqnet's hot kernels (google-benchmark).
//
// These guard the costs that dominate the figure harnesses: the §4
// best-swap scan, ledger updates, shortest paths, the simplex solver and
// the statevector kernels.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/balancing_sim.hpp"
#include "core/distributed.hpp"
#include "core/ledger.hpp"
#include "core/lp_formulation.hpp"
#include "core/maxmin_balancer.hpp"
#include "core/workload.hpp"
#include "graph/shortest_path.hpp"
#include "graph/topology.hpp"
#include "quantum/circuits.hpp"
#include "quantum/gates.hpp"
#include "sim/network_state.hpp"
#include "util/rng.hpp"

namespace {

using namespace poq;

void BM_LedgerAddRemove(benchmark::State& state) {
  core::PairLedger ledger(64);
  util::Rng rng(1);
  for (auto _ : state) {
    const auto x = static_cast<core::NodeId>(rng.uniform_index(64));
    auto y = static_cast<core::NodeId>(rng.uniform_index(64));
    if (y == x) y = (y + 1) % 64;
    ledger.add(x, y);
    ledger.remove(x, y);
  }
}
BENCHMARK(BM_LedgerAddRemove);

/// Keyed stream derivation, scalar vs batched: the batch hoists the
/// (seed, a, b) sponge prefix and loops one mix per entity, so the
/// per-stream cost should drop well below the scalar 4-fold derivation.
void BM_KeyedDeriveScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<util::Rng> streams(count, util::Rng(0));
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t e = 0; e < count; ++e) {
      streams[e] = util::Rng::keyed(42, 7, round, e);
    }
    benchmark::DoNotOptimize(streams.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_KeyedDeriveScalar)->Arg(1024)->Arg(16384);

void BM_KeyedDeriveBatch(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<util::Rng> streams(count, util::Rng(0));
  std::uint64_t round = 0;
  for (auto _ : state) {
    util::Rng::keyed_batch(42, 7, round, 0, streams);
    benchmark::DoNotOptimize(streams.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_KeyedDeriveBatch)->Arg(1024)->Arg(16384);

/// Per-entity Bernoulli decisions, branching scalar path (full stream
/// construction + uniform_double compare) vs the branch-free batched
/// integer-threshold loop. Both produce bit-identical decisions.
void BM_BernoulliScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> flags(count, 0);
  std::uint64_t round = 0;
  for (auto _ : state) {
    for (std::size_t e = 0; e < count; ++e) {
      util::Rng rng = util::Rng::keyed(42, 7, round, e);
      flags[e] = rng.bernoulli(0.37) ? 1 : 0;
    }
    benchmark::DoNotOptimize(flags.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BernoulliScalar)->Arg(1024)->Arg(16384);

void BM_BernoulliBatchBranchFree(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> flags(count, 0);
  std::uint64_t round = 0;
  for (auto _ : state) {
    util::Rng::bernoulli_batch(42, 7, round, 0, 0.37, flags);
    benchmark::DoNotOptimize(flags.data());
    ++round;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BernoulliBatchBranchFree)->Arg(1024)->Arg(16384);

/// Batched canonical ledger merge vs edge-by-edge adds on the megascale
/// generation shape (every edge +1 per round over a fixed grid).
void ledger_generate_bench(benchmark::State& state, bool batched) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(n, topo_rng);
  core::PairLedger ledger(n);
  ledger.enable_dirty_tracking();
  const std::span<const graph::Edge> edges(graph.edges());
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(ledger.add_edges(edges, 1));
    } else {
      for (const graph::Edge& edge : edges) ledger.add(edge.a(), edge.b(), 1);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}

void BM_LedgerGenerateMergeScalar(benchmark::State& state) {
  ledger_generate_bench(state, /*batched=*/false);
}
BENCHMARK(BM_LedgerGenerateMergeScalar)->Arg(1024)->Arg(10000);

void BM_LedgerGenerateMergeBatched(benchmark::State& state) {
  ledger_generate_bench(state, /*batched=*/true);
}
BENCHMARK(BM_LedgerGenerateMergeBatched)->Arg(1024)->Arg(10000);

void BM_BestSwapScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::PairLedger ledger(n);
  util::Rng rng(7);
  // Dense-ish ledger: every node entangled with ~n/2 partners.
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (rng.bernoulli(0.5)) ledger.add(x, y, 1 + static_cast<std::uint32_t>(rng.uniform_index(5)));
    }
  }
  const core::MaxMinBalancer balancer((core::DistillationMatrix(1.0)));
  core::NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(balancer.best_swap(ledger, node));
    node = (node + 1) % static_cast<core::NodeId>(n);
  }
}
BENCHMARK(BM_BestSwapScan)->Arg(25)->Arg(49)->Arg(100);

void BM_LedgerPartnerChurn(benchmark::State& state) {
  // CSR partner-arena in-place insert/erase: every iteration flips one
  // pair between 0 and 1, forcing a sorted-row insert and erase.
  core::PairLedger ledger(64);
  util::Rng rng(2);
  for (core::NodeId x = 0; x < 64; ++x) {
    for (core::NodeId y = x + 1; y < 64; ++y) {
      if (rng.bernoulli(0.3)) ledger.add(x, y);
    }
  }
  util::Rng pick(3);
  for (auto _ : state) {
    const auto x = static_cast<core::NodeId>(pick.uniform_index(64));
    auto y = static_cast<core::NodeId>(pick.uniform_index(64));
    if (y == x) y = (y + 1) % 64;
    if (ledger.count(x, y) == 0) {
      ledger.add(x, y);
    } else {
      ledger.remove(x, y, ledger.count(x, y));
    }
  }
}
BENCHMARK(BM_LedgerPartnerChurn);

void BM_LedgerPartnersScan(benchmark::State& state) {
  core::PairLedger ledger(128);
  util::Rng rng(4);
  for (core::NodeId x = 0; x < 128; ++x) {
    for (core::NodeId y = x + 1; y < 128; ++y) {
      if (rng.bernoulli(0.25)) ledger.add(x, y);
    }
  }
  core::NodeId node = 0;
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const core::NodeId y : ledger.partners(node)) sum += y;
    benchmark::DoNotOptimize(sum);
    node = (node + 1) % 128;
  }
}
BENCHMARK(BM_LedgerPartnersScan);

/// Decide-kernel cost per round, dirty-set vs full rescan: a warmed-up
/// NetworkState where each iteration dirties only a few nodes (range(1))
/// out of n (range(0)) before re-deciding — the steady-state shape the
/// BENCH_hotpath suite measures end to end.
void decide_kernel_bench(benchmark::State& state, bool incremental) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dirty_per_round = static_cast<std::size_t>(state.range(1));
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(n, topo_rng);
  sim::TickConcurrency tick;
  tick.threads = 1;
  tick.incremental_decide = incremental;
  sim::NetworkState net(graph, 1, tick);
  net.ledger().set_reader_threshold(2);
  util::Rng fill(7);
  for (core::NodeId x = 0; x < n; ++x) {
    for (core::NodeId y = x + 1; y < n; ++y) {
      if (fill.bernoulli(0.3)) {
        net.ledger().add(x, y, 1 + static_cast<std::uint32_t>(fill.uniform_index(4)));
      }
    }
  }
  const core::MaxMinBalancer balancer((core::DistillationMatrix(1.0)));
  const auto decide = [&](core::NodeId x, core::MaxMinBalancer::Scratch& s) {
    return balancer.best_swap(net.ledger(), x, s);
  };
  net.decide_swaps(decide);  // warm the candidate cache
  util::Rng touch(9);
  for (auto _ : state) {
    for (std::size_t k = 0; k < dirty_per_round; ++k) {
      const auto x = static_cast<core::NodeId>(touch.uniform_index(n));
      auto y = static_cast<core::NodeId>(touch.uniform_index(n));
      if (y == x) y = static_cast<core::NodeId>((y + 1) % n);
      net.ledger().add(x, y, 2);
      net.ledger().remove(x, y, 2);
    }
    net.decide_swaps(decide);
    benchmark::DoNotOptimize(net.candidates().data());
  }
}

void BM_DecideKernelDirtySet(benchmark::State& state) {
  decide_kernel_bench(state, /*incremental=*/true);
}
BENCHMARK(BM_DecideKernelDirtySet)->Args({100, 4})->Args({225, 4});

void BM_DecideKernelFullRescan(benchmark::State& state) {
  decide_kernel_bench(state, /*incremental=*/false);
}
BENCHMARK(BM_DecideKernelFullRescan)->Args({100, 4})->Args({225, 4});

/// Per-run control-plane cost of the distributed protocol at growing n
/// (cycle topology, constant degree): sparse CountUpdate messages to
/// believed partners should keep the measured bytes-per-epoch roughly
/// linear in n — the counter lands in the bench's user counters, so the
/// n=64 -> n=256 pair makes a dense n^2 rebroadcast regression visible
/// as a superlinear jump, alongside the wall-time per epoch.
void BM_DistributedControlPlane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph graph = graph::make_cycle(n);
  util::Rng workload_rng(5);
  const core::Workload workload =
      core::make_uniform_workload(n, 10, 100000, workload_rng);
  core::DistributedConfig config;
  config.seed = 9;
  config.duration = 25.0;
  const auto epochs = std::ceil(config.duration / config.dt);
  double bytes_per_epoch = 0.0;
  for (auto _ : state) {
    const core::DistributedResult result =
        core::run_distributed(graph, workload, config);
    bytes_per_epoch = static_cast<double>(result.control_bytes) / epochs;
    benchmark::DoNotOptimize(result.control_messages);
  }
  state.counters["bytes_per_epoch"] = bytes_per_epoch;
  state.counters["bytes_per_epoch_per_node"] =
      bytes_per_epoch / static_cast<double>(n);
}
BENCHMARK(BM_DistributedControlPlane)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BalancingRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng topo_rng(3);
  const graph::Graph graph = graph::make_random_connected_grid(n, topo_rng);
  util::Rng workload_rng(5);
  const core::Workload workload = core::make_uniform_workload(
      n, std::min<std::size_t>(35, n * (n - 1) / 2), 1000000, workload_rng);
  core::BalancingConfig config;
  core::BalancingSimulation sim(graph, workload, config);
  for (auto _ : state) {
    sim.step_round();
  }
}
BENCHMARK(BM_BalancingRound)->Arg(25)->Arg(49);

void BM_AllPairsBfs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph graph = graph::make_torus_grid(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::all_pairs_distances(graph));
  }
}
BENCHMARK(BM_AllPairsBfs)->Arg(25)->Arg(100);

void BM_SteadyStateLpMinGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::SteadyStateSpec spec;
  spec.node_count = n;
  const graph::Graph graph = graph::make_cycle(n);
  for (const graph::Edge& edge : graph.edges()) {
    spec.generation_capacity.push_back(
        core::RatedPair{core::NodePair(edge.a(), edge.b()), 100.0});
  }
  spec.demand.push_back(core::RatedPair{core::NodePair(0, static_cast<core::NodeId>(n / 2)), 1.0});
  const core::SteadyStateLp lp(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp.solve(core::SteadyStateObjective::kMinTotalGeneration));
  }
}
BENCHMARK(BM_SteadyStateLpMinGeneration)->Arg(6)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_StatevectorCnotLadder(benchmark::State& state) {
  const auto qubits = static_cast<unsigned>(state.range(0));
  quantum::Statevector sv(qubits);
  sv.apply(quantum::gates::hadamard(), 0);
  for (auto _ : state) {
    for (unsigned q = 0; q + 1 < qubits; ++q) sv.apply_cnot(q, q + 1);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_StatevectorCnotLadder)->Arg(10)->Arg(16)->Arg(20);

void BM_SwapChainFourHops(benchmark::State& state) {
  util::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantum::swap_chain(4, {2, 1, 3}, rng));
  }
}
BENCHMARK(BM_SwapChainFourHops);

}  // namespace
