#include "core/balancing_sim.hpp"

#include <algorithm>
#include <cmath>

#include "core/nested.hpp"
#include "graph/shortest_path.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace poq::core {

namespace {

/// Probabilistic rounding of a fractional amount.
std::uint32_t rounded_amount(double value, util::Rng& rng) {
  const double floor_part = std::floor(value);
  auto amount = static_cast<std::uint32_t>(floor_part);
  const double frac = value - floor_part;
  if (frac > 0.0 && rng.bernoulli(frac)) ++amount;
  return amount;
}

}  // namespace

BalancingSimulation::BalancingSimulation(const graph::Graph& generation_graph,
                                         const Workload& workload,
                                         const BalancingConfig& config)
    : generation_graph_(generation_graph),
      workload_(workload),
      config_(config),
      oracle_(generation_graph),
      state_(generation_graph, config.seed, config.tick),
      // The dense distance matrix is materialized only when the decide
      // kernel actually reads it (detour slack); megascale runs stay
      // O(nodes + edges).
      balancer_(DistillationMatrix(config.distillation), config.policy,
                config.policy.detour_slack ? &oracle_.dense() : nullptr),
      consume_rng_(util::Rng(config.seed).fork(3)) {
  require(config.distillation >= 0.0, "BalancingConfig: D must be >= 0");
  require(config.generation_per_edge_per_round >= 0.0,
          "BalancingConfig: generation rate must be >= 0");
  require(config.arrival_rate >= 0.0,
          "BalancingConfig: arrival rate must be >= 0");
  // Uniform distillation: a partner is eligible for the §4 scan only from
  // count ceil(D + 1) (the smallest integer C with C - D >= 1), which
  // lets the incremental decide skip marking for mutations no decision
  // can observe.
  state_.ledger().set_reader_threshold(
      static_cast<std::uint32_t>(std::ceil(config.distillation + 1.0)));
  require(generation_graph.node_count() >= 3,
          "BalancingSimulation: need at least 3 nodes to swap");
  if (config_.faults.enabled()) {
    fault_plan_.emplace(generation_graph, config_.faults, config_.seed);
    state_.set_fault_plan(&*fault_plan_);
  }
  const std::size_t n = generation_graph.node_count();
  pool_size_ = config_.consumer_pool > 0
                   ? static_cast<std::size_t>(config_.consumer_pool)
                   : n * (n - 1) / 2;
  for (const NodePair& pair : workload.pairs) {
    require(pair.second < generation_graph.node_count(),
            "BalancingSimulation: workload references unknown node");
    require(oracle_.distance(pair.first, pair.second) != graph::kUnreachable,
            "BalancingSimulation: consumer pair disconnected");
  }
}

bool BalancingSimulation::finished() const {
  if (result_.rounds >= config_.max_rounds) return true;
  if (streaming()) {
    return config_.max_requests > 0 &&
           result_.requests_satisfied >= config_.max_requests;
  }
  return head_ >= workload_.request_count();
}

void BalancingSimulation::begin_round() { ++result_.rounds; }

void BalancingSimulation::fault_phase() {
  if (!fault_plan_) return;
  // Serial phase between the round boundary and the generation kernel:
  // the plan's keyed streams make the trajectory identical at every
  // threads/shards setting, and the crash purges run through the ledger's
  // canonical remove path (reader marks included).
  const std::vector<NodeId>& crashed = fault_plan_->advance(result_.rounds);
  for (const NodeId x : crashed) {
    result_.pairs_purged_by_faults += state_.purge_node(x);
  }
  round_degraded_ = fault_plan_->degraded();
  if (round_degraded_) {
    in_degraded_episode_ = true;
  } else if (in_degraded_episode_) {
    // Episode over: measure rounds until delivery resumes.
    in_degraded_episode_ = false;
    awaiting_recovery_ = true;
    episode_end_round_ = result_.rounds;
  }
}

void BalancingSimulation::generation_phase() {
  result_.pairs_generated += state_.generate(
      result_.rounds, config_.generation_per_edge_per_round);
}

void BalancingSimulation::swap_phase() {
  // Synchronous-round semantics: every node picks its best preferable swap
  // against the frozen post-generation ledger (the expensive O(P^2) scan,
  // fanned across node shards), then the choices go through the two-level
  // commit — disjoint node triples commit in parallel, conflicting swaps
  // serialize in canonical rotating order with preferability re-checks —
  // so the merge order, not the worker schedule, decides every conflict.
  // Fractional-D rounding draws come from per-(round, node, attempt)
  // streams, consumed only on commit.
  const auto node_count = static_cast<NodeId>(state_.node_count());
  const auto first = static_cast<NodeId>(result_.rounds % node_count);
  for (std::uint32_t attempt = 0; attempt < config_.swaps_per_node_per_round;
       ++attempt) {
    state_.decide_swaps([&](NodeId x, MaxMinBalancer::Scratch& scratch) {
      return balancer_.best_swap(ledger(), x, scratch);
    });
    const sim::NetworkState::CommitStats stats = state_.commit_swaps(
        balancer_, first, result_.rounds, attempt,
        [&](NodeId x, const SwapCandidate& candidate) {
          // An earlier commit of the same component may have consumed the
          // pairs this choice needed.
          return balancer_.is_preferable(ledger(), x, candidate.left,
                                         candidate.right);
        });
    result_.swaps_performed += stats.swaps;
    result_.pairs_spent_on_swaps += stats.pairs_consumed;
    result_.pairs_produced_by_swaps += stats.pairs_produced;
    if (stats.swaps == 0) break;  // a fixed point for this round
  }
}

NodePair BalancingSimulation::pool_pair(std::uint64_t j) const {
  // Derived, not stored: pair j of the virtual pool comes from its own
  // keyed stream, so any pool size (millions of consumer pairs) costs
  // nothing and the draw is independent of when j is first referenced.
  util::Rng rng =
      util::Rng::keyed(config_.seed, sim::stream_tag::kConsumerPair, j, 0);
  const std::size_t n = generation_graph_.node_count();
  const auto u = static_cast<NodeId>(rng.uniform_index(n));
  auto v = static_cast<NodeId>(rng.uniform_index(n - 1));
  if (v >= u) ++v;  // skip u: uniform over the other n-1 nodes
  return NodePair(u, v);
}

std::optional<NodePair> BalancingSimulation::head_pair() const {
  if (streaming()) {
    if (pending_.empty()) return std::nullopt;
    return pool_pair(pending_.front());
  }
  if (head_ >= workload_.request_count()) return std::nullopt;
  return workload_.request(head_);
}

void BalancingSimulation::arrival_phase() {
  // Serial phase, one keyed stream per round: arrivals are deterministic
  // at every threads/shards setting and independent of the round's other
  // draws.
  util::Rng rng = util::Rng::keyed(config_.seed,
                                   sim::stream_tag::kConsumerArrival,
                                   result_.rounds, 0);
  const std::uint64_t arrivals = rng.poisson(config_.arrival_rate);
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    pending_.push_back(rng.uniform_index(pool_size_));
  }
  result_.requests_arrived += arrivals;
}

void BalancingSimulation::consumption_phase() {
  if (streaming()) arrival_phase();
  while (true) {
    const std::optional<NodePair> head = head_pair();
    if (!head) break;
    const NodePair pair = *head;
    const double need = balancer_.distillation().at(pair.first, pair.second);
    // A consumption event uses (and destroys) D_{x,y} pairs (§3.2's r-).
    const auto need_ceiling = static_cast<std::uint32_t>(std::ceil(need));
    if (ledger().count(pair.first, pair.second) < std::max(1u, need_ceiling)) break;
    const std::uint32_t amount =
        std::max(1u, rounded_amount(need, consume_rng_));
    ledger().remove(pair.first, pair.second,
                    std::min(amount, ledger().count(pair.first, pair.second)));
    result_.pairs_consumed += amount;
    ++result_.requests_satisfied;
    if (round_degraded_) ++result_.delivered_under_fault;
    if (awaiting_recovery_) {
      result_.time_to_recover.add(
          static_cast<double>(result_.rounds - episode_end_round_));
      awaiting_recovery_ = false;
    }
    // Satisfied pairs are connected by construction (their count was
    // nonzero), so the hop lookup is total; the lazy oracle caches the
    // few rows the consumer set actually touches.
    const std::uint32_t hops = oracle_.distance(pair.first, pair.second);
    result_.denominator_paper += nested_swap_cost_paper(hops, config_.distillation);
    result_.denominator_exact += nested_swap_cost_exact(hops, config_.distillation);
    result_.head_wait_rounds.add(static_cast<double>(result_.rounds - head_since_));
    if (streaming()) {
      pending_.pop_front();
    } else {
      ++head_;
    }
    head_since_ = result_.rounds;
    if (streaming() && config_.max_requests > 0 &&
        result_.requests_satisfied >= config_.max_requests) {
      result_.completed = true;
      break;
    }
  }
  if (streaming()) {
    result_.backlog = pending_.size();
    result_.backlog_peak = std::max(result_.backlog_peak, result_.backlog);
  } else if (head_ >= workload_.request_count()) {
    result_.completed = true;
  }
}

std::uint64_t BalancingSimulation::memory_bytes() const {
  return state_.memory_bytes() + oracle_.memory_bytes() +
         pending_.size() * sizeof(std::uint64_t);
}

void BalancingSimulation::step_round() {
  begin_round();
  fault_phase();
  generation_phase();
  swap_phase();
  consumption_phase();
}

BalancingResult BalancingSimulation::run() {
  // Requests may already be satisfiable at round 0 (e.g. adjacent pairs
  // after the first generation round); the loop handles that naturally.
  while (!finished()) {
    util::this_thread_check_cancelled();
    step_round();
  }
  return result();
}

BalancingResult run_balancing(const graph::Graph& generation_graph,
                              const Workload& workload,
                              const BalancingConfig& config) {
  BalancingSimulation simulation(generation_graph, workload, config);
  return simulation.run();
}

}  // namespace poq::core
