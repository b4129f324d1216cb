#include "core/async_routing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/ledger.hpp"
#include "graph/shortest_path.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/vertex_program.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace poq::core {

namespace {

/// One in-flight request. Tokens live in a flat arena; the vertex-program
/// messages and the per-node waiting queues carry indices into it.
struct Token {
  NodeId src = 0;
  NodeId dst = 0;
  double arrival_time = 0.0;
  std::uint64_t deadline_epoch = 0;
  std::uint32_t hops = 0;
};

class Driver {
 public:
  Driver(const graph::Graph& graph, const Workload& workload,
         const AsyncRoutingConfig& config)
      : graph_(graph),
        workload_(workload),
        config_(config),
        n_(static_cast<NodeId>(graph.node_count())),
        distances_(graph::all_pairs_distances(graph)),
        ledger_(n_),
        waiting_(n_),
        blocked_(n_, 0),
        pool_(std::make_unique<sim::ParallelTickEngine>(config.tick.threads)),
        vp_(n_, pool_.get(), pool_->resolve_shards(config.tick.shards, n_)) {
    timeout_epochs_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(config.timeout / config.dt)));
    if (config.faults.enabled()) {
      fault_plan_.emplace(graph, config.faults, config.seed);
    }
  }

  AsyncRoutingResult run() {
    const auto epochs =
        static_cast<std::uint64_t>(std::ceil(config_.duration / config_.dt));
    for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
      util::this_thread_check_cancelled();
      epoch_ = epoch;
      now_ = static_cast<double>(epoch + 1) * config_.dt;
      fault_phase();
      apply_phase();
      generate();
      admit_arrivals();
      route();
      vp_.signals().reset_budget();
    }
    result_.control_messages = vp_.messages_sent();
    if (fault_plan_) {
      const sim::FaultStats& fault_stats = fault_plan_->stats();
      result_.availability = fault_stats.availability();
      result_.fault_rounds_degraded = fault_stats.degraded_rounds;
      result_.node_crashes = fault_stats.node_crashes;
      result_.link_downs = fault_stats.link_downs;
    }
    return std::move(result_);
  }

 private:
  using Program = sim::VertexProgram<std::uint32_t>;

  [[nodiscard]] std::uint64_t handoff_delay(NodeId a, NodeId b) const {
    const double latency =
        config_.latency_per_hop * static_cast<double>(distances_[a][b]);
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::floor(latency / config_.dt + 0.5)));
  }

  /// Fault phase (serial): advance the plan, destroy crashed nodes' pairs
  /// via the ledger's canonical remove path, track degraded episodes.
  void fault_phase() {
    if (!fault_plan_) return;
    const std::vector<NodeId>& crashed = fault_plan_->advance(epoch_);
    for (const NodeId x : crashed) {
      const std::span<const NodeId> row = ledger_.partners(x);
      purge_partners_.assign(row.begin(), row.end());
      for (const NodeId y : purge_partners_) {
        const std::uint32_t count = ledger_.count(x, y);
        if (count == 0) continue;
        ledger_.remove(x, y, count);
        result_.pairs_purged_by_faults += count;
        vp_.signals().signal(y);  // its routing options shrank
      }
      vp_.signals().signal(x);
    }
    const bool degraded = fault_plan_->degraded();
    if (degraded) {
      in_degraded_episode_ = true;
    } else if (in_degraded_episode_) {
      in_degraded_episode_ = false;
      awaiting_recovery_ = true;
      episode_end_ = now_;
    }
    round_degraded_ = degraded;
  }

  /// Deliver token handoffs: the apply kernel appends each arriving token
  /// to its junction's waiting queue and signals the junction.
  void apply_phase() {
    const std::vector<std::uint32_t>& active = vp_.deliver(epoch_);
    if (active.empty()) return;
    vp_.run_kernel([&](std::size_t shard, Program::Context& ctx) {
      const auto [begin, end] = sim::ParallelTickEngine::shard_range(
          active.size(), vp_.shard_count(), shard);
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId v = active[i];
        for (const std::uint32_t token : vp_.inbox(v)) {
          waiting_[v].push_back(token);
        }
        ctx.signal(v);
      }
    });
  }

  void generate() {
    const auto& edges = graph_.edges();
    // Batched per-edge draw: poisson_batch derives the per-(epoch, edge)
    // keyed streams with the sponge prefix hoisted once, bit-identical to
    // the scalar keyed + poisson loop.
    // Under faults the rate scales by the degradation factor and downed
    // edges drop their draw (per-edge keyed streams: nothing else shifts).
    const double rate = config_.generation_rate * config_.dt *
                        (fault_plan_ ? fault_plan_->rate_factor() : 1.0);
    const bool masked = fault_plan_ && fault_plan_->any_edge_down();
    born_scratch_.resize(edges.size());
    util::Rng::poisson_batch(config_.seed, sim::stream_tag::kGeneration,
                             epoch_, 0, rate, born_scratch_);
    for (std::size_t index = 0; index < edges.size(); ++index) {
      if (masked && !fault_plan_->edge_up(index)) continue;
      const std::uint64_t born = born_scratch_[index];
      if (born == 0) continue;
      const graph::Edge& edge = edges[index];
      ledger_.add(edge.a(), edge.b(), static_cast<std::uint32_t>(born));
      vp_.signals().signal(edge.a());
      vp_.signals().signal(edge.b());
      result_.pairs_generated += born;
    }
  }

  void admit_arrivals() {
    util::Rng rng =
        util::Rng::keyed(config_.seed, sim::stream_tag::kArrival, epoch_, 0);
    const std::uint64_t arrivals =
        rng.poisson(config_.arrival_rate * config_.dt);
    for (std::uint64_t k = 0; k < arrivals; ++k) {
      if (next_request_ >= workload_.request_count()) return;
      const NodePair& request = workload_.request(next_request_++);
      ++result_.requests_arrived;
      Token token;
      token.src = request.first;
      token.dst = request.second;
      token.arrival_time = now_;
      token.deadline_epoch = epoch_ + timeout_epochs_;
      const auto id = static_cast<std::uint32_t>(tokens_.size());
      tokens_.push_back(token);
      waiting_[request.first].push_back(id);
      vp_.signals().signal(request.first);
    }
  }

  /// Greedy step: the entangled partner of `u` strictly closer to `dst`,
  /// closest first, smallest id on ties. n_ when no segment helps.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dst) const {
    const std::uint32_t from_here = distances_[u][dst];
    NodeId best = n_;
    std::uint32_t best_distance = from_here;
    for (const NodeId v : ledger_.partners(u)) {
      const std::uint32_t through = distances_[v][dst];
      if (through < best_distance) {
        best_distance = through;
        best = v;
      }
    }
    return best;
  }

  /// The continuous resolution walk, in canonical rotating order. Each
  /// waiting token tries one greedy step; junctions whose last attempt
  /// blocked are skipped until signaled (counts or waiting set changed) —
  /// a token's step is a pure function of exactly that state, so the skip
  /// never changes results.
  void route() {
    const auto first = static_cast<NodeId>(epoch_ % n_);
    for (NodeId offset = 0; offset < n_; ++offset) {
      const NodeId u = (first + offset) % n_;
      std::vector<std::uint32_t>& queue = waiting_[u];
      if (queue.empty()) {
        blocked_[u] = 0;
        continue;
      }
      expire(queue);
      if (fault_plan_ && !fault_plan_->node_up(u)) {
        // Crashed: tokens wait (expiring on timeout) until recovery.
        // blocked_ stays 0 so the node is re-examined once it is back up.
        blocked_[u] = 0;
        continue;
      }
      if (config_.tick.incremental_decide && blocked_[u] != 0 &&
          !vp_.signals().test(u)) {
        continue;  // blocked and nothing it reads changed: still blocked
      }
      std::size_t keep = 0;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const std::uint32_t id = queue[i];
        if (!step(u, id)) queue[keep++] = id;
      }
      queue.resize(keep);
      blocked_[u] = queue.empty() ? 0 : 1;
      // Clear after the walk: everything marked so far (including this
      // node's own consumption) was read live by the steps above, so the
      // remaining tokens are blocked against the post-change counts.
      vp_.signals().clear(u);
    }
  }

  void expire(std::vector<std::uint32_t>& queue) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (epoch_ >= tokens_[queue[i]].deadline_epoch) {
        ++result_.requests_dropped;
      } else {
        queue[keep++] = queue[i];
      }
    }
    queue.resize(keep);
  }

  /// Try one greedy move of token `id` waiting at `u`. True if the token
  /// left `u` (moved or completed).
  bool step(NodeId u, std::uint32_t id) {
    Token& token = tokens_[id];
    if (u == token.dst) {  // degenerate src == dst request
      complete(token);
      return true;
    }
    const NodeId v = next_hop(u, token.dst);
    if (v == n_) return false;
    ledger_.remove(u, v);
    ++result_.pairs_consumed;
    vp_.signals().signal(u);
    vp_.signals().signal(v);
    if (u != token.src) ++result_.swaps;  // junction chained two segments
    ++token.hops;
    if (v == token.dst) {
      complete(token);
      return true;
    }
    vp_.send(v, handoff_delay(u, v), id);
    return true;
  }

  void complete(const Token& token) {
    ++result_.requests_satisfied;
    if (round_degraded_) ++result_.delivered_under_fault;
    if (awaiting_recovery_) {
      result_.time_to_recover.add(now_ - episode_end_);
      awaiting_recovery_ = false;
    }
    result_.request_latency.add(now_ - token.arrival_time);
    result_.request_hops.add(static_cast<double>(token.hops));
  }

  const graph::Graph& graph_;
  const Workload& workload_;
  const AsyncRoutingConfig& config_;
  NodeId n_;
  std::vector<std::vector<std::uint32_t>> distances_;

  PairLedger ledger_;
  std::vector<Token> tokens_;
  std::vector<std::vector<std::uint32_t>> waiting_;
  /// Nonzero while the node's last routing attempt left tokens waiting.
  std::vector<std::uint8_t> blocked_;
  std::size_t next_request_ = 0;
  std::uint64_t timeout_epochs_ = 1;

  std::unique_ptr<sim::ParallelTickEngine> pool_;
  Program vp_;

  std::uint64_t epoch_ = 0;
  double now_ = 0.0;
  /// Per-edge generation draws (resized once, reused every epoch).
  std::vector<std::uint64_t> born_scratch_;
  // Fault phase state (engaged only when config.faults.enabled()).
  std::optional<sim::FaultPlan> fault_plan_;
  std::vector<NodeId> purge_partners_;
  bool round_degraded_ = false;
  bool in_degraded_episode_ = false;
  bool awaiting_recovery_ = false;
  double episode_end_ = 0.0;
  AsyncRoutingResult result_;
};

}  // namespace

AsyncRoutingResult run_async_routing(const graph::Graph& generation_graph,
                                     const Workload& workload,
                                     const AsyncRoutingConfig& config) {
  require(generation_graph.node_count() >= 2,
          "run_async_routing: need at least 2 nodes");
  require(config.latency_per_hop >= 0.0, "run_async_routing: negative latency");
  require(config.dt > 0.0, "run_async_routing: dt must be positive");
  require(config.timeout > 0.0, "run_async_routing: timeout must be positive");
  require(config.arrival_rate >= 0.0, "run_async_routing: negative arrival rate");
  return Driver(generation_graph, workload, config).run();
}

}  // namespace poq::core
