#include "core/planned_path.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>

#include "core/nested.hpp"
#include "graph/shortest_path.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {

namespace {

void expand_demand(std::size_t lo, std::size_t hi, double usable_need,
                   double distillation, NestedDemand& out) {
  const std::size_t hops = hi - lo;
  if (hops == 1) {
    // One usable elementary pair costs D raw pairs from this edge.
    out.edge_raw_demand[lo] += distillation * usable_need;
    return;
  }
  // Each usable pair of this span is distilled from D raw copies; each
  // raw copy takes one joining swap of a usable pair of each half-span.
  const double raw_copies = distillation * usable_need;
  out.swap_count += raw_copies;
  const std::size_t mid = lo + hops / 2;
  expand_demand(lo, mid, raw_copies, distillation, out);
  expand_demand(mid, hi, raw_copies, distillation, out);
}

}  // namespace

NestedDemand compute_nested_demand(std::size_t path_edges, double distillation) {
  require(path_edges >= 1, "compute_nested_demand: need >= 1 edge");
  require(distillation >= 0.0, "compute_nested_demand: D must be >= 0");
  NestedDemand demand;
  demand.edge_raw_demand.assign(path_edges, 0.0);
  expand_demand(0, path_edges, 1.0, distillation, demand);
  return demand;
}

namespace {

struct Connection {
  std::size_t request_index = 0;
  std::vector<std::size_t> edge_indices;   // into graph.edges()
  std::vector<double> remaining;           // per edge_indices entry
  std::vector<double> demand;              // original per-edge demand
  double swap_count = 0.0;
  std::uint32_t admitted_round = 0;

  [[nodiscard]] bool done() const {
    for (double r : remaining) {
      if (r > 1e-9) return false;
    }
    return true;
  }
};

}  // namespace

PlannedPathResult run_planned_path(const graph::Graph& generation_graph,
                                   const Workload& workload,
                                   const PlannedPathConfig& config) {
  require(config.window >= 1, "PlannedPathConfig: window must be >= 1");
  require(config.distillation >= 0.0, "PlannedPathConfig: D must be >= 0");

  PlannedPathResult result;

  std::optional<sim::FaultPlan> fault_plan;
  if (config.faults.enabled()) {
    fault_plan.emplace(generation_graph, config.faults, config.seed);
  }
  bool round_degraded = false;
  bool in_degraded_episode = false;
  bool awaiting_recovery = false;
  std::uint32_t episode_end_round = 0;

  sim::ParallelTickEngine pool(config.tick.threads);
  const std::size_t shard_count =
      pool.resolve_shards(config.tick.shards, generation_graph.edge_count());
  std::vector<std::uint64_t> shard_generated(shard_count, 0);

  std::vector<double> buffer(generation_graph.edge_count(), 0.0);
  std::vector<bool> reserved(generation_graph.edge_count(), false);
  std::deque<Connection> active;
  std::size_t next_request = 0;

  const auto admit_head = [&]() -> bool {
    if (next_request >= workload.request_count() || active.size() >= config.window) {
      return false;
    }
    const NodePair& pair = workload.request(next_request);
    const auto path = graph::shortest_path(generation_graph, pair.first, pair.second);
    require(path.has_value(), "run_planned_path: consumer pair disconnected");
    const std::size_t hops = path->size() - 1;

    Connection connection;
    connection.request_index = next_request;
    connection.edge_indices.reserve(hops);
    for (std::size_t i = 0; i + 1 < path->size(); ++i) {
      const auto index = generation_graph.edge_index((*path)[i], (*path)[i + 1]);
      connection.edge_indices.push_back(*index);
    }
    if (config.mode == PlannedPathMode::kConnectionOriented) {
      // Head-of-line: if any edge is reserved by an in-flight connection,
      // the head request (and everything behind it) waits.
      for (std::size_t e : connection.edge_indices) {
        if (reserved[e]) return false;
      }
      for (std::size_t e : connection.edge_indices) reserved[e] = true;
    }
    NestedDemand demand = compute_nested_demand(hops, config.distillation);
    connection.remaining = demand.edge_raw_demand;
    connection.demand = std::move(demand.edge_raw_demand);
    connection.swap_count = demand.swap_count;
    connection.admitted_round = result.rounds;
    active.push_back(std::move(connection));
    ++next_request;
    return true;
  };

  const auto complete = [&](Connection& connection) {
    result.swaps_performed += connection.swap_count;
    ++result.requests_satisfied;
    if (round_degraded) ++result.delivered_under_fault;
    if (awaiting_recovery) {
      result.time_to_recover.add(
          static_cast<double>(result.rounds - episode_end_round));
      awaiting_recovery = false;
    }
    result.service_rounds.add(
        static_cast<double>(result.rounds - connection.admitted_round));
    const auto hops = static_cast<std::uint32_t>(connection.edge_indices.size());
    result.denominator_paper += nested_swap_cost_paper(hops, config.distillation);
    result.denominator_exact += nested_swap_cost_exact(hops, config.distillation);
    if (config.mode == PlannedPathMode::kConnectionOriented) {
      for (std::size_t e : connection.edge_indices) reserved[e] = false;
    }
  };

  while ((next_request < workload.request_count() || !active.empty()) &&
         result.rounds < config.max_rounds) {
    util::this_thread_check_cancelled();
    ++result.rounds;

    // 0. Fault phase: advance the plan, destroy the raw pairs buffered at
    //    a crashed node's links (claimed pairs included — the in-flight
    //    demand resets), track degraded episodes. Serial, keyed streams:
    //    the trajectory is identical at every threads/shards setting.
    if (fault_plan) {
      const std::vector<NodeId>& crashed = fault_plan->advance(result.rounds);
      for (const NodeId x : crashed) {
        for (const NodeId y : generation_graph.neighbors(x)) {
          const std::size_t e = *generation_graph.edge_index(x, y);
          result.pairs_purged_by_faults += static_cast<std::uint64_t>(buffer[e]);
          buffer[e] = 0.0;
          for (Connection& connection : active) {
            for (std::size_t k = 0; k < connection.edge_indices.size(); ++k) {
              if (connection.edge_indices[k] != e) continue;
              result.pairs_purged_by_faults += static_cast<std::uint64_t>(
                  connection.demand[k] - connection.remaining[k]);
              connection.remaining[k] = connection.demand[k];
            }
          }
        }
      }
      round_degraded = fault_plan->degraded();
      if (round_degraded) {
        in_degraded_episode = true;
      } else if (in_degraded_episode) {
        in_degraded_episode = false;
        awaiting_recovery = true;
        episode_end_round = result.rounds;
      }
    }

    // 1. Generation into shared edge buffers.
    const bool masked = fault_plan && fault_plan->any_edge_down();
    const double rate = config.generation_per_edge_per_round *
                        (fault_plan ? fault_plan->rate_factor() : 1.0);
    const double whole = std::floor(rate);
    const double frac = rate - whole;
    // Per-(round, edge) streams + disjoint buffer slices per shard; the
    // per-shard totals merge in shard order, so any threads/shards
    // setting produces the same result bit for bit. Masked edges skip
    // their draw — each edge's stream is keyed, so no other stream
    // shifts.
    pool.run_shards(shard_count, [&](std::size_t shard) {
      const auto [begin, end] = sim::ParallelTickEngine::shard_range(
          buffer.size(), shard_count, shard);
      std::uint64_t generated = 0;
      for (std::size_t e = begin; e < end; ++e) {
        if (masked && !fault_plan->edge_up(e)) continue;
        double amount = whole;
        if (frac > 0.0) {
          util::Rng edge_rng = util::Rng::keyed(
              config.seed, sim::stream_tag::kGeneration, result.rounds, e);
          if (edge_rng.bernoulli(frac)) amount += 1.0;
        }
        buffer[e] += amount;
        generated += static_cast<std::uint64_t>(amount);
      }
      shard_generated[shard] = generated;
    });
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      result.pairs_generated += shard_generated[shard];
    }

    // 2. Admission, strictly in sequence order.
    while (admit_head()) {
    }

    // 3. Allocation: in-flight connections claim pairs in request order
    //    (connectionless competition is resolved oldest-first; with
    //    reservation the buffers on reserved edges are private anyway).
    for (Connection& connection : active) {
      for (std::size_t k = 0; k < connection.edge_indices.size(); ++k) {
        const std::size_t e = connection.edge_indices[k];
        if (connection.remaining[k] <= 0.0) continue;
        const double take = std::min(connection.remaining[k], buffer[e]);
        connection.remaining[k] -= take;
        buffer[e] -= take;
      }
    }

    // 4. Completions (any order within the window; admissions were FIFO).
    for (auto it = active.begin(); it != active.end();) {
      if (it->done()) {
        complete(*it);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }

  if (fault_plan) {
    const sim::FaultStats& fault_stats = fault_plan->stats();
    result.availability = fault_stats.availability();
    result.fault_rounds_degraded = fault_stats.degraded_rounds;
    result.node_crashes = fault_stats.node_crashes;
    result.link_downs = fault_stats.link_downs;
  }
  result.completed = result.requests_satisfied == workload.request_count();
  return result;
}

}  // namespace poq::core
