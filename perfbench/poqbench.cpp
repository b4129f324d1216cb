// poqbench — end-to-end and per-layer timing of poqnet on three workloads.
//
//   poqbench --workload fig5_dense|megascale_t4|serve_mix --seed N
//            --seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR]
//
// The benchmark times calls into each layer's public functions from
// outside; it adds no instrumentation to the library. fig5_dense and
// megascale_t4 drive core::BalancingSimulation directly: step_round() in
// the untraced run, each phase call on its own in the traced run.
// serve_mix runs two closed-loop clients against an in-process
// serve::Server. Every simulated output is checked against
// scenario::registry().run() on the same spec, outside the timed window.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The traced run also writes its spans
// as Chrome trace-event JSON to DIR/trace-<workload>-seed<N>.json.
// perfbench/README.md maps each metric to the layer and workload it
// reads. The exit code is nonzero when any output is wrong.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/balancing_sim.hpp"
#include "scenario/metrics.hpp"
#include "scenario/protocol.hpp"
#include "scenario/spec.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using poq::util::json::Value;
namespace core = poq::core;
namespace scenario = poq::scenario;
namespace serve = poq::serve;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolated quantile (the "type 7" rule numpy uses).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (position - static_cast<double>(low)) * (values[high] - values[low]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far.
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Seed of the index-th input of a run. Kept below 2^32 so it survives the
/// serve protocol's JSON numbers exactly.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t state = base * 0x9E3779B97F4A7C15ull + index;
  return poq::util::splitmix64(state) >> 32;
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

enum class Size { kFull, kTiny };

struct Workload {
  std::string name;
  /// End-to-end numbers come from the serve window (else from the
  /// phase-driven simulation window).
  bool serve = false;
  /// Intra-run threads of the workload's balancing simulations.
  std::int64_t threads = 1;
  /// Balancing spec of simulation `index`; specs repeat with period
  /// `distinct_specs`, so one registry reference covers each residue.
  std::function<scenario::ScenarioSpec(std::uint64_t index)> sim_spec;
  std::uint64_t distinct_specs = 1;
  /// Job list the serve clients cycle (serve_mix's mix; a one-pass probe
  /// of the serve layer in the traced run of the simulator workloads).
  std::vector<scenario::ScenarioSpec> mix;
};

scenario::ScenarioSpec balancing_spec(const std::string& topology,
                                      std::size_t nodes, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.protocol = "balancing";
  spec.topology = topology;
  spec.nodes = nodes;
  spec.seed = seed;
  return spec;
}

/// Protocol families in the serve mix; the mix lists them in blocks of
/// this size, balancing first.
constexpr std::size_t kFamilies = 8;

/// The serve mix: one small job per protocol family, in
/// `variants` seeds each. Engine-backed jobs run at threads=2; the sizes
/// keep every family under about a third of the mix's time.
std::vector<scenario::ScenarioSpec> serve_mix_specs(std::uint64_t seed,
                                                    std::size_t variants) {
  std::vector<scenario::ScenarioSpec> mix;
  for (std::size_t variant = 0; variant < variants; ++variant) {
    const auto job = [&](const std::string& protocol, std::size_t nodes) {
      scenario::ScenarioSpec spec =
          balancing_spec("full-grid", nodes, derive_seed(seed, 1000 + mix.size()));
      spec.protocol = protocol;
      spec.consumer_pairs = 6;
      spec.requests = 40;
      if (protocol != "lp") spec.knobs["threads"] = std::int64_t{2};
      return spec;
    };
    // Fractional-rate Bernoulli generation under link churn: fault masks
    // and a partial dirty frontier, which the other workloads never hit.
    scenario::ScenarioSpec balancing = job("balancing", 16);
    balancing.knobs["generation-rate"] = 0.5;
    balancing.knobs["fault-link-mtbf"] = 40.0;
    balancing.knobs["fault-link-mttr"] = 5.0;
    mix.push_back(balancing);
    mix.push_back(job("planned", 16));
    mix.push_back(job("hybrid", 16));
    mix.push_back(job("gossip", 16));
    scenario::ScenarioSpec distributed = job("distributed", 16);
    distributed.knobs["duration"] = 12.0;
    mix.push_back(distributed);
    scenario::ScenarioSpec async_routing = job("async_routing", 16);
    async_routing.knobs["duration"] = 100.0;
    mix.push_back(async_routing);
    scenario::ScenarioSpec fidelity = job("fidelity", 16);
    fidelity.knobs["duration"] = 30.0;
    fidelity.knobs["memory-T"] = 50.0;
    mix.push_back(fidelity);
    mix.push_back(job("lp", 9));
  }
  return mix;
}

Workload make_workload(const std::string& name, std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  Workload workload;
  workload.name = name;
  workload.mix = serve_mix_specs(seed, tiny ? 1 : 8);
  if (name == "fig5_dense") {
    // Fig. 5's largest cell: every node is dirty every round, so the
    // serial decide scan dominates. Each simulation gets its own seed, so
    // a run averages over many random grids.
    workload.threads = 1;
    workload.distinct_specs = std::numeric_limits<std::uint64_t>::max();
    workload.sim_spec = [seed, tiny](std::uint64_t index) {
      scenario::ScenarioSpec spec =
          balancing_spec("random-grid", tiny ? 25 : 100, derive_seed(seed, index));
      spec.consumer_pairs = 35;
      spec.requests = tiny ? 10000 : 1000000;  // never drains
      spec.knobs["distillation"] = 1.0;
      spec.knobs["generation-rate"] = 1.0;
      spec.knobs["max-rounds"] = std::int64_t{tiny ? 30 : 300};
      spec.knobs["threads"] = std::int64_t{1};
      return spec;
    };
  } else if (name == "megascale_t4") {
    // The ROADMAP's 10^4-node reference cell. Its trajectory does not
    // depend on the seed (integral generation, no request completes), so
    // one spec per run suffices.
    workload.threads = 4;
    workload.sim_spec = [seed, tiny](std::uint64_t) {
      scenario::ScenarioSpec spec =
          balancing_spec("full-grid", tiny ? 400 : 10000, derive_seed(seed, 0));
      spec.consumer_pairs = 4;
      spec.requests = 1;
      spec.knobs["arrival-rate"] = 8.0;
      spec.knobs["consumer-pool"] = std::int64_t{2000000};
      spec.knobs["max-rounds"] = std::int64_t{tiny ? 10 : 120};
      spec.knobs["threads"] = std::int64_t{4};
      return spec;
    };
  } else if (name == "serve_mix") {
    // The traced run drives the mix's balancing jobs phase by phase.
    workload.serve = true;
    workload.threads = 2;
    const std::vector<scenario::ScenarioSpec> mix = workload.mix;
    workload.distinct_specs = mix.size() / kFamilies;
    workload.sim_spec = [mix](std::uint64_t index) {
      return mix[kFamilies * (index % (mix.size() / kFamilies))];
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fig5_dense, megascale_t4, serve_mix)");
  }
  return workload;
}

/// The BalancingConfig the registry's balancing adapter builds from a
/// spec, for the knobs the workloads set. The correctness check proves
/// the two agree.
core::BalancingConfig balancing_config(const scenario::ScenarioSpec& spec) {
  core::BalancingConfig config;
  config.distillation = spec.knob_double("distillation", 1.0);
  config.max_rounds = static_cast<std::uint32_t>(spec.knob_int("max-rounds", 50000));
  config.swaps_per_node_per_round =
      static_cast<std::uint32_t>(spec.knob_int("swap-rate", 1));
  config.generation_per_edge_per_round = spec.knob_double("generation-rate", 1.0);
  config.seed = spec.seed;
  config.arrival_rate = spec.knob_double("arrival-rate", 0.0);
  config.consumer_pool = static_cast<std::uint64_t>(spec.knob_int("consumer-pool", 0));
  config.max_requests = static_cast<std::uint64_t>(spec.knob_int("max-requests", 0));
  config.tick.mode = poq::sim::TickMode::kSharded;
  config.tick.threads = static_cast<std::uint32_t>(spec.knob_int("threads", 1));
  config.faults.node_mtbf = spec.knob_double("fault-node-mtbf", 0.0);
  config.faults.node_mttr = spec.knob_double("fault-node-mttr", 10.0);
  config.faults.link_mtbf = spec.knob_double("fault-link-mtbf", 0.0);
  config.faults.link_mttr = spec.knob_double("fault-link-mttr", 10.0);
  config.faults.rate_degradation = spec.knob_double("fault-rate-degradation", 0.0);
  config.faults.script = spec.faults;
  return config;
}

// --------------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------------

/// One timed span of the traced run. `unit` numbers the simulation or the
/// job; spans of one round share (unit, round), spans of one job share
/// unit with round -1.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  std::int32_t parent = -1;  // index in the same lane; -1 for a root
  std::uint32_t unit = 0;
  std::int32_t round = -1;
};

/// Spans recorded by one thread, kept in memory until the run ends. Every
/// span of a lane numbers the same kind of unit.
struct Lane {
  const char* unit_kind = "";  // "sim" or "job"
  std::vector<Span> spans;
};

std::int32_t open_span(Lane& lane, const char* name, std::int32_t parent,
                       std::uint32_t unit, std::int32_t round,
                       Clock::time_point start) {
  lane.spans.push_back(Span{name, start, start, parent, unit, round});
  return static_cast<std::int32_t>(lane.spans.size() - 1);
}

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per span name: count, inclusive time, and self time (duration minus
/// the part its child spans cover; children never overlap here).
std::map<std::string, SpanTotals> span_totals(const std::vector<Lane>& lanes) {
  std::map<std::string, SpanTotals> totals;
  for (const Lane& lane : lanes) {
    std::vector<double> child_ms(lane.spans.size(), 0.0);
    for (const Span& span : lane.spans) {
      if (span.parent >= 0) {
        child_ms[static_cast<std::size_t>(span.parent)] +=
            ms_between(span.start, span.end);
      }
    }
    for (std::size_t i = 0; i < lane.spans.size(); ++i) {
      SpanTotals& entry = totals[lane.spans[i].name];
      const double ms = ms_between(lane.spans[i].start, lane.spans[i].end);
      ++entry.count;
      entry.total_ms += ms;
      entry.self_ms += ms - child_ms[i];
    }
  }
  return totals;
}

/// Chrome trace-event JSON, streamed one event per line.
void write_trace(const std::string& path, const std::string& workload,
                 const Value& fingerprint, const std::vector<Lane>& lanes,
                 Clock::time_point epoch) {
  std::ofstream out(path);
  out << "{\"metadata\":" << fingerprint.dump() << ",\"traceEvents\":[";
  const char* separator = "\n";
  const auto us = [&](Clock::time_point at) {
    return std::chrono::duration<double, std::micro>(at - epoch).count();
  };
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    for (const Span& span : lanes[tid].spans) {
      std::string id = workload + "/" + lanes[tid].unit_kind + std::to_string(span.unit);
      if (span.round >= 0) id += "/round" + std::to_string(span.round);
      Value args = Value::object();
      args.set("id", id);
      args.set("parent", std::int64_t{span.parent});
      Value event = Value::object();
      event.set("name", span.name);
      event.set("ph", "X");
      event.set("ts", us(span.start));
      event.set("dur", us(span.end) - us(span.start));
      event.set("pid", 1);
      event.set("tid", static_cast<std::int64_t>(tid));
      event.set("args", std::move(args));
      out << separator << event.dump();
      separator = ",\n";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

// --------------------------------------------------------------------------
// Phase-driven simulations
// --------------------------------------------------------------------------

/// The simulated outputs the correctness check compares.
struct Outputs {
  double rounds = 0.0;
  double satisfied = 0.0;
  double swaps = 0.0;
  double pairs_generated = 0.0;
  double overhead_paper = 0.0;  // 0 when no request was satisfied
  bool operator==(const Outputs&) const = default;
};

Outputs outputs_of(const core::BalancingResult& result) {
  return {static_cast<double>(result.rounds),
          static_cast<double>(result.requests_satisfied),
          static_cast<double>(result.swaps_performed),
          static_cast<double>(result.pairs_generated),
          result.denominator_paper > 0.0 ? result.swap_overhead_paper() : 0.0};
}

Outputs outputs_of(const scenario::RunMetrics& metrics) {
  return {metrics.scalar("rounds"), metrics.scalar("satisfied"),
          metrics.scalar("swaps"), metrics.scalar("pairs_generated"),
          metrics.has_scalar("overhead_paper") ? metrics.scalar("overhead_paper")
                                               : 0.0};
}

/// Layer counters of one traced simulation, read through the public
/// accessors after each phase call.
struct LayerSample {
  double fault_ms = 0.0;
  double generation_ms = 0.0;
  double swap_ms = 0.0;
  double consumption_ms = 0.0;
  std::uint64_t dirty = 0;  // dirty nodes entering the swap phase
  std::uint64_t candidates = 0;
  std::uint64_t commit_probes = 0;
  poq::sim::PhaseTimers kernels;
  std::uint64_t live_pairs_end = 0;
  double memory_bytes_per_node = 0.0;
  std::size_t nodes = 0;
};

struct SimRun {
  std::uint64_t index = 0;
  double instantiate_ms = 0.0;
  double construct_ms = 0.0;
  double step_ms = 0.0;  // host time inside the round loop
  Outputs outputs;
  LayerSample layer;  // traced runs only

};

/// Simulated rounds per host second over the runs' step_round() loops.
double rounds_per_s(const std::vector<SimRun>& runs) {
  double rounds = 0.0;
  double step_ms = 0.0;
  for (const SimRun& run : runs) {
    rounds += run.outputs.rounds;
    step_ms += run.step_ms;
  }
  return rounds / (step_ms / 1000.0);
}

/// A spec made concrete plus the simulation built on it (the simulation
/// keeps references into the instance).
struct LiveSim {
  std::unique_ptr<scenario::ScenarioInstance> instance;
  std::unique_ptr<core::BalancingSimulation> sim;
};

LiveSim set_up(const scenario::ScenarioSpec& spec, SimRun& run,
               Lane* lane = nullptr, std::int32_t parent = -1) {
  LiveSim live;
  const Clock::time_point t0 = Clock::now();
  live.instance =
      std::make_unique<scenario::ScenarioInstance>(scenario::instantiate(spec));
  const Clock::time_point t1 = Clock::now();
  live.sim = std::make_unique<core::BalancingSimulation>(
      live.instance->graph, live.instance->workload, balancing_config(spec));
  const Clock::time_point t2 = Clock::now();
  run.instantiate_ms = ms_between(t0, t1);
  run.construct_ms = ms_between(t1, t2);
  if (lane != nullptr) {
    const auto unit = static_cast<std::uint32_t>(run.index);
    lane->spans.push_back(Span{"scenario.instantiate", t0, t1, parent, unit, -1});
    lane->spans.push_back(Span{"core.construct", t1, t2, parent, unit, -1});
  }
  return live;
}

/// Untraced: step_round() to the round budget, timing every call.
SimRun run_untraced(const Workload& workload, std::uint64_t index,
                    std::vector<double>& round_ms) {
  SimRun run;
  run.index = index;
  LiveSim live = set_up(workload.sim_spec(index), run);
  core::BalancingSimulation& sim = *live.sim;
  while (!sim.finished()) {
    const Clock::time_point start = Clock::now();
    sim.step_round();
    const double ms = ms_between(start, Clock::now());
    round_ms.push_back(ms);
    run.step_ms += ms;
  }
  run.outputs = outputs_of(sim.result());
  return run;
}

/// Traced: each phase call on its own, one span per call.
SimRun run_traced(const Workload& workload, std::uint64_t index, Lane& lane) {
  SimRun run;
  run.index = index;
  const auto unit = static_cast<std::uint32_t>(index);
  const std::int32_t root =
      open_span(lane, "bench.simulation", -1, unit, -1, Clock::now());
  LiveSim live = set_up(workload.sim_spec(index), run, &lane, root);
  core::BalancingSimulation& sim = *live.sim;
  LayerSample& layer = run.layer;
  layer.nodes = sim.state().node_count();
  while (!sim.finished()) {
    const auto round = static_cast<std::int32_t>(sim.round() + 1);
    Clock::time_point t = Clock::now();
    const std::int32_t round_span = open_span(lane, "bench.round", root, unit, round, t);
    // Consecutive phases share a clock read: one phase's end is the
    // next one's start. Returns the phase's milliseconds.
    const auto phase = [&](const char* name, auto&& call) {
      const Clock::time_point start = t;
      call();
      t = Clock::now();
      lane.spans.push_back(Span{name, start, t, round_span, unit, round});
      return ms_between(start, t);
    };
    phase("core.begin_round", [&] { sim.begin_round(); });
    layer.fault_ms += phase("core.fault_phase", [&] { sim.fault_phase(); });
    layer.generation_ms +=
        phase("core.generation_phase", [&] { sim.generation_phase(); });
    layer.dirty += sim.ledger().dirty_count();
    layer.swap_ms += phase("core.swap_phase", [&] { sim.swap_phase(); });
    layer.candidates += sim.state().candidate_nodes().size();
    layer.commit_probes += sim.state().last_commit_probes();
    layer.consumption_ms +=
        phase("core.consumption_phase", [&] { sim.consumption_phase(); });
    lane.spans[round_span].end = t;
    run.step_ms += ms_between(lane.spans[round_span].start, t);
  }
  lane.spans[root].end = Clock::now();
  run.outputs = outputs_of(sim.result());
  layer.kernels = sim.state().timers();
  layer.live_pairs_end = sim.ledger().total_pairs();
  layer.memory_bytes_per_node = static_cast<double>(sim.memory_bytes()) /
                                static_cast<double>(layer.nodes);
  return run;
}

/// Simulations per traced run at most; the cap bounds the trace file
/// (serve_mix's balancing jobs are tiny).
constexpr std::size_t kMaxTracedSims = 100;

/// Untraced simulations until `seconds` have passed (at least one, at
/// most `max_runs`).
std::vector<SimRun> untraced_window(const Workload& workload, double seconds,
                                    std::vector<double>& round_ms,
                                    std::size_t max_runs) {
  std::vector<SimRun> runs;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::uint64_t index = 0;
       runs.empty() || (runs.size() < max_runs && Clock::now() < deadline); ++index) {
    runs.push_back(run_untraced(workload, index, round_ms));
  }
  return runs;
}

/// Setup alone (instantiate + construct), `reps` times; milliseconds.
std::vector<double> sim_setup_ms(const Workload& workload, std::size_t reps) {
  std::vector<double> samples;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    SimRun run;
    const LiveSim live = set_up(workload.sim_spec(rep), run);
    samples.push_back(run.instantiate_ms + run.construct_ms);
  }
  return samples;
}

/// Registry references per spec residue, computed outside timed windows.
class References {
 public:
  explicit References(const Workload& workload) : workload_(workload) {}

  /// Run the registry on every spec of `indices` not yet cached, on up to
  /// kThreads threads (references are independent single runs).
  void compute(const std::vector<std::uint64_t>& indices) {
    std::vector<std::uint64_t> keys;
    for (const std::uint64_t index : indices) {
      const std::uint64_t key = index % workload_.distinct_specs;
      if (!cache_.count(key) &&
          std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
    std::vector<Outputs> outputs(keys.size());
    std::vector<std::exception_ptr> errors(keys.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        try {
          const scenario::ScenarioSpec spec = workload_.sim_spec(keys[i]);
          outputs[i] = outputs_of(scenario::registry().run(spec.protocol, spec));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> threads;
    const std::size_t count = std::min<std::size_t>(kThreads, keys.size());
    for (std::size_t t = 0; t < count; ++t) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
      cache_.emplace(keys[i], outputs[i]);
    }
  }

  [[nodiscard]] const Outputs& at(std::uint64_t index) const {
    return cache_.at(index % workload_.distinct_specs);
  }

 private:
  static constexpr std::size_t kThreads = 3;
  const Workload& workload_;
  std::map<std::uint64_t, Outputs> cache_;
};

// --------------------------------------------------------------------------
// Serve
// --------------------------------------------------------------------------

enum class Outcome { kDone, kRejected, kTimeout, kFailed };

struct JobSample {
  std::size_t mix_index = 0;
  Clock::time_point submit;
  Clock::time_point admitted;
  Clock::time_point started;
  Clock::time_point finished;
  Outcome outcome = Outcome::kFailed;
  std::uint64_t job = 0;  // the server's job id
};

constexpr unsigned kServeClients = 2;
constexpr unsigned kServeWorkers = 2;

serve::ServerOptions server_options(const std::string& socket_path) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.workers = kServeWorkers;
  options.queue_depth = 8;
  options.job_timeout = 60.0;  // a hung job fails as "timeout"
  return options;
}

/// A started server and its connected clients. Members are destroyed in
/// reverse order: the clients close before the server stops.
struct Session {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

Session open_session(const std::string& socket_path) {
  Session session;
  session.server = std::make_unique<serve::Server>(server_options(socket_path));
  session.server->start();
  for (unsigned c = 0; c < kServeClients; ++c) {
    session.clients.push_back(std::make_unique<serve::Client>(socket_path));
    session.clients.back()->connect();
  }
  return session;
}

/// Server::start plus every client's connect, `reps` times; milliseconds.
std::vector<double> serve_setup_ms(const std::string& socket_path,
                                   std::size_t reps) {
  std::vector<double> samples;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    const Session session = open_session(socket_path);
    samples.push_back(ms_between(start, Clock::now()));
  }
  return samples;
}

struct ServeWindow {
  std::vector<JobSample> jobs;
  double wall_ms = 0.0;
  double rss_mb = 0.0;  // peak RSS right after the window
  std::size_t client_errors = 0;
  /// Rejected, timed-out or failed jobs, client errors, and served results
  /// that differ from the registry.
  std::size_t failed = 0;
};

/// A served metrics object minus its wall-clock timings. The JSON is
/// compared as sent: RunMetrics::from_json rebuilds stats from their
/// summary, which can move a stddev by one ulp.
std::string without_timings(const Value& metrics) {
  Value out = Value::object();
  for (const auto& [key, value] : metrics.members()) {
    if (key != "timings") out.set(key, value);
  }
  return out.dump();
}

/// Closed loop: each client submits its next job only after the previous
/// one reached a terminal event. Stops at `seconds`, or after
/// `jobs_per_client` jobs each when that is nonzero. Client c starts the
/// mix at offset c * mix.size() / clients. After the window, each
/// completed job's result is read back with the status op and compared
/// with `direct`, its spec's registry result; the benchmark itself keeps
/// no served results, so they do not inflate the peak RSS.
ServeWindow serve_window(const std::vector<scenario::ScenarioSpec>& mix,
                         const std::vector<std::string>& direct,
                         const std::string& socket_path, double seconds,
                         std::size_t jobs_per_client, std::vector<Lane>* lanes) {
  std::vector<Value> requests;
  for (const scenario::ScenarioSpec& spec : mix) {
    Value request = Value::object();
    request.set("op", "submit_run");
    request.set("spec", spec.to_json());
    request.set("watch", true);
    requests.push_back(std::move(request));
  }
  const Session session = open_session(socket_path);
  const auto& clients = session.clients;
  std::vector<std::vector<JobSample>> per_client(kServeClients);
  std::vector<std::string> errors(kServeClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client_loop = [&](unsigned c) {
    try {
      for (std::size_t k = 0;; ++k) {
        if (jobs_per_client > 0 ? k >= jobs_per_client : Clock::now() >= deadline) {
          break;
        }
        JobSample job;
        job.mix_index = (k + c * mix.size() / kServeClients) % mix.size();
        job.submit = Clock::now();
        const Value reply = clients[c]->request(requests[job.mix_index]);
        job.admitted = Clock::now();
        job.started = job.admitted;
        if (!reply.at("ok").as_bool()) {
          job.outcome = Outcome::kRejected;
          job.finished = job.admitted;
          per_client[c].push_back(std::move(job));
          continue;
        }
        job.job = static_cast<std::uint64_t>(reply.at("job").as_number());
        const Value terminal = clients[c]->read_events([&](const Value& event) {
          if (event.at("event").as_string() == "job_started") {
            job.started = Clock::now();
          }
        });
        job.finished = Clock::now();
        if (terminal.at("event").as_string() == "job_done") {
          job.outcome = Outcome::kDone;
        } else if (terminal.contains("error") &&
                   terminal.at("error").as_string() == "timeout") {
          job.outcome = Outcome::kTimeout;
        }
        per_client[c].push_back(std::move(job));
      }
    } catch (const std::exception& error) {
      errors[c] = error.what();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kServeClients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& thread : threads) thread.join();
  ServeWindow window;
  window.rss_mb = peak_rss_mb();
  Clock::time_point last = start;
  for (unsigned c = 0; c < kServeClients; ++c) {
    for (JobSample& job : per_client[c]) {
      last = std::max(last, job.finished);
      if (lanes != nullptr) {
        Lane& lane = (*lanes)[1 + c];
        const auto unit = static_cast<std::uint32_t>(window.jobs.size());
        const std::int32_t root =
            open_span(lane, "serve.job", -1, unit, -1, job.submit);
        lane.spans[root].end = job.finished;
        lane.spans.push_back(Span{"serve.admit", job.submit, job.admitted, root, unit, -1});
        lane.spans.push_back(Span{"serve.queue", job.admitted, job.started, root, unit, -1});
        lane.spans.push_back(Span{"serve.exec", job.started, job.finished, root, unit, -1});
      }
      window.jobs.push_back(std::move(job));
    }
    if (!errors[c].empty()) {
      ++window.client_errors;
      ++window.failed;
      std::cerr << "serve client failed: " << errors[c] << '\n';
    }
  }
  window.wall_ms = ms_between(start, last);
  for (const JobSample& job : window.jobs) {
    if (job.outcome != Outcome::kDone) {
      ++window.failed;
      continue;
    }
    Value status = Value::object();
    status.set("op", "status");
    status.set("job", job.job);
    const Value reply = clients[0]->request(status);
    if (without_timings(reply.at("status").at("result").at("metrics")) !=
        direct[job.mix_index]) {
      ++window.failed;
      std::cerr << "mismatch: served " << mix[job.mix_index].protocol
                << " job differs from the registry run\n";
    }
  }
  return window;
}

std::vector<std::string> direct_results(
    const std::vector<scenario::ScenarioSpec>& mix) {
  std::vector<std::string> direct;
  for (const scenario::ScenarioSpec& spec : mix) {
    direct.push_back(
        scenario::registry().run(spec.protocol, spec).to_json(false).dump());
  }
  return direct;
}

// --------------------------------------------------------------------------
// Reporting
// --------------------------------------------------------------------------

Value fingerprint(const Workload& workload) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  Value out = Value::object();
  out.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  out.set("cpu", cpu);
  out.set("compiler", compiler);
  out.set("build_type", POQBENCH_BUILD_TYPE);
  out.set("workload", workload.name);
  out.set("sim_threads", workload.threads);
  if (workload.serve) {
    out.set("serve_workers", std::int64_t{kServeWorkers});
    out.set("serve_clients", std::int64_t{kServeClients});
  }
  return out;
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::cout << "  " << name << " = " << value << ' ' << unit;
    if (!note.empty()) std::cout << "  (" << note << ')';
    std::cout << '\n';
    Value metric = Value::object();
    metric.set("value", value);
    metric.set("unit", unit);
    metrics_.set(name, std::move(metric));
  }

  int finish(std::uint64_t attempted, std::uint64_t failed) {
    const bool correct = failed == 0;
    Value result = Value::object();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", metrics_);
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
  }

 private:
  Value metrics_ = Value::object();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".bench_build";
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
      if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace 0|1");
      options.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") throw std::invalid_argument("--size full|tiny");
      options.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

/// Per-layer metrics of the traced simulations (core and sim layers).
void report_sim_layers(Report& report, const std::vector<SimRun>& traced,
                       const std::vector<SimRun>& untraced) {
  std::vector<double> instantiate, construct, fault, generation, swap, consumption,
      core_self, generate, decide, commit, imbalance;
  double swaps = 0.0, rounds = 0.0, node_rounds = 0.0;
  double dirty = 0.0, candidates = 0.0, probes = 0.0;
  for (const SimRun& run : traced) {
    const LayerSample& layer = run.layer;
    const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
    const double kernel_ms = ms(layer.kernels.generate_ns) +
                             ms(layer.kernels.decide_ns) +
                             ms(layer.kernels.commit_ns);
    instantiate.push_back(run.instantiate_ms);
    construct.push_back(run.construct_ms);
    fault.push_back(layer.fault_ms);
    generation.push_back(layer.generation_ms);
    swap.push_back(layer.swap_ms);
    consumption.push_back(layer.consumption_ms);
    core_self.push_back(layer.fault_ms + layer.generation_ms + layer.swap_ms +
                        layer.consumption_ms - kernel_ms);
    generate.push_back(ms(layer.kernels.generate_ns));
    decide.push_back(ms(layer.kernels.decide_ns));
    commit.push_back(ms(layer.kernels.commit_ns));
    imbalance.push_back(layer.kernels.decide_load.imbalance());
    swaps += run.outputs.swaps;
    rounds += run.outputs.rounds;
    node_rounds += run.outputs.rounds * static_cast<double>(layer.nodes);
    dirty += static_cast<double>(layer.dirty);
    candidates += static_cast<double>(layer.candidates);
    probes += static_cast<double>(layer.commit_probes);
  }
  const SimRun& first = traced.front();
  const std::string per_sim = "median per simulation over " +
                              std::to_string(traced.size());
  report.add("scenario.instantiate_ms", median(instantiate), "ms", per_sim);
  report.add("core.construct_ms", median(construct), "ms", per_sim);
  report.add("core.fault_phase_ms", median(fault), "ms", per_sim);
  report.add("core.generation_phase_ms", median(generation), "ms", per_sim);
  report.add("core.swap_phase_ms", median(swap), "ms", per_sim);
  report.add("core.consumption_phase_ms", median(consumption), "ms", per_sim);
  report.add("core.self_ms", median(core_self), "ms",
             "phase calls minus sim kernel time");
  report.add("core.swaps", first.outputs.swaps, "count", "first simulation");
  report.add("core.satisfied", first.outputs.satisfied, "count", "first simulation");
  report.add("core.pairs_generated", first.outputs.pairs_generated, "count",
             "first simulation");
  report.add("core.swap_yield", candidates > 0.0 ? swaps / candidates : 0.0, "ratio",
             "swaps / candidates offered to commit");
  report.add("sim.generate_ms", median(generate), "ms", per_sim);
  report.add("sim.decide_ms", median(decide), "ms", per_sim);
  report.add("sim.commit_ms", median(commit), "ms", per_sim);
  report.add("sim.decide_imbalance", median(imbalance), "ratio",
             "max/mean decide chunk time");
  report.add("sim.dirty_frac", node_rounds > 0.0 ? dirty / node_rounds : 0.0, "ratio",
             "dirty nodes entering decide / nodes");
  report.add("sim.candidates_per_round", rounds > 0.0 ? candidates / rounds : 0.0,
             "count");
  report.add("sim.commit_probes_per_round", rounds > 0.0 ? probes / rounds : 0.0,
             "count");
  report.add("sim.live_pairs_end", static_cast<double>(first.layer.live_pairs_end),
             "count", "first simulation");
  report.add("sim.memory_bytes_per_node", first.layer.memory_bytes_per_node, "B",
             "first simulation");
  report.add("trace.overhead_rounds_per_s", rounds_per_s(untraced) - rounds_per_s(traced),
             "1/s", "untraced minus traced rounds_per_s");
}

/// Per-layer metrics of a serve window (client-side timestamps).
void report_serve_layers(Report& report, const std::vector<scenario::ScenarioSpec>& mix,
                         const ServeWindow& window) {
  std::vector<double> admit, queue, exec;
  std::map<std::string, std::vector<double>> per_protocol;
  double rejects = 0.0, timeouts = 0.0, failed = 0.0;
  for (const JobSample& job : window.jobs) {
    switch (job.outcome) {
      case Outcome::kRejected: rejects += 1.0; continue;
      case Outcome::kTimeout: timeouts += 1.0; continue;
      case Outcome::kFailed: failed += 1.0; continue;
      case Outcome::kDone: break;
    }
    admit.push_back(ms_between(job.submit, job.admitted));
    queue.push_back(ms_between(job.admitted, job.started));
    exec.push_back(ms_between(job.started, job.finished));
    per_protocol[mix[job.mix_index].protocol].push_back(
        ms_between(job.submit, job.finished));
  }
  const std::string note = std::to_string(exec.size()) + " jobs";
  report.add("serve.admit_ms_p50", quantile(admit, 0.5), "ms", note);
  report.add("serve.queue_ms_p50", quantile(queue, 0.5), "ms", note);
  report.add("serve.exec_ms_p50", quantile(exec, 0.5), "ms", note);
  report.add("serve.exec_ms_p90", quantile(exec, 0.9), "ms", note);
  report.add("serve.rejects", rejects, "count");
  report.add("serve.timeouts", timeouts, "count");
  report.add("serve.failed", failed, "count");
  for (std::size_t family = 0; family < kFamilies; ++family) {
    const std::string& protocol = mix[family].protocol;
    const std::vector<double>& samples = per_protocol[protocol];
    report.add("serve.job_ms_p50." + protocol, quantile(samples, 0.5), "ms",
               std::to_string(samples.size()) + " jobs");
  }
}

void print_self_times(const std::vector<Lane>& lanes) {
  std::cout << "self time by span (count, total ms, self ms):\n";
  for (const auto& [name, totals] : span_totals(lanes)) {
    std::cout << "  " << name << ' ' << totals.count << ' ' << totals.total_ms << ' '
              << totals.self_ms << '\n';
  }
}

/// Count simulations whose outputs differ from the registry reference.
std::size_t check_sims(const std::vector<SimRun>& runs, References& references) {
  std::vector<std::uint64_t> indices;
  for (const SimRun& run : runs) indices.push_back(run.index);
  references.compute(indices);
  std::size_t failed = 0;
  for (const SimRun& run : runs) {
    if (!(run.outputs == references.at(run.index))) {
      ++failed;
      std::cerr << "mismatch: simulation " << run.index
                << " differs from the registry run (rounds " << run.outputs.rounds
                << ", swaps " << run.outputs.swaps << ")\n";
    }
  }
  return failed;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// serve_mix, untraced: the end-to-end metrics of the closed-loop window.
/// Returns the peak RSS right after the window.
double measure_serve(const Workload& workload, double seconds, std::size_t setup_reps,
                     const std::string& socket_path, Report& report, Tally& tally) {
  const std::vector<std::string> direct = direct_results(workload.mix);  // warms up
  const std::vector<double> setup = serve_setup_ms(socket_path, setup_reps);
  const ServeWindow window =
      serve_window(workload.mix, direct, socket_path, seconds, 0, nullptr);
  tally.failed += window.failed;
  tally.attempted += window.jobs.size() + window.client_errors;
  std::vector<double> job_ms;
  for (const JobSample& job : window.jobs) {
    if (job.outcome == Outcome::kDone) job_ms.push_back(ms_between(job.submit, job.finished));
  }
  const std::string samples = std::to_string(job_ms.size()) + " jobs";
  report.add("setup_s", median(setup) / 1000.0, "s",
             "Server::start + client connects, median of " + std::to_string(setup.size()));
  report.add("throughput_per_s",
             static_cast<double>(job_ms.size()) / (window.wall_ms / 1000.0), "1/s",
             "jobs_per_s, " + samples);
  report.add("latency_ms_p50", quantile(job_ms, 0.5), "ms", "job_ms_p50, " + samples);
  report.add("latency_ms_p90", quantile(job_ms, 0.9), "ms", "job_ms_p90, " + samples);
  return window.rss_mb;
}

/// fig5_dense and megascale_t4, untraced: the end-to-end metrics of the
/// step_round() window. Returns the peak RSS right after the window.
double measure_sims(const Workload& workload, double seconds, std::size_t setup_reps,
                    Report& report, Tally& tally) {
  References references(workload);
  references.compute({0});  // the first reference doubles as warm-up
  const std::vector<double> setup = sim_setup_ms(workload, setup_reps);
  std::vector<double> round_ms;
  const std::vector<SimRun> runs = untraced_window(
      workload, seconds, round_ms, std::numeric_limits<std::size_t>::max());
  const double rss_mb = peak_rss_mb();
  tally.failed += check_sims(runs, references);
  tally.attempted += runs.size();
  const std::string samples = std::to_string(round_ms.size()) + " rounds in " +
                              std::to_string(runs.size()) + " simulations";
  report.add("setup_s", median(setup) / 1000.0, "s",
             "instantiate + construct, median of " + std::to_string(setup.size()));
  report.add("throughput_per_s", rounds_per_s(runs), "1/s",
             "rounds_per_s over the step_round() loop, " + samples);
  report.add("latency_ms_p50", quantile(round_ms, 0.5), "ms", "round_ms_p50, " + samples);
  report.add("latency_ms_p90", quantile(round_ms, 0.9), "ms", "round_ms_p90, " + samples);
  return rss_mb;
}

/// The traced run: every layer, each on the workload's own inputs where
/// it has them. The simulator workloads probe the serve layer with one
/// pass of the mix; serve_mix drives its mix's balancing jobs phase by
/// phase. The untraced half times the same simulations the traced half
/// repeats, which gives the tracing overhead.
void measure_layers(const Workload& workload, const Options& options,
                    const std::string& socket_path, const Value& machine,
                    Report& report, Tally& tally) {
  std::vector<Lane> lanes(1 + kServeClients, Lane{"job", {}});
  lanes[0].unit_kind = "sim";
  const Clock::time_point epoch = Clock::now();
  const std::vector<std::string> direct = direct_results(workload.mix);
  References references(workload);
  references.compute({0});
  ServeWindow window;
  if (workload.serve) {
    window = serve_window(workload.mix, direct, socket_path, options.seconds, 0, &lanes);
  }
  std::vector<double> round_ms;
  const std::vector<SimRun> untraced =
      untraced_window(workload, options.seconds / 2.0, round_ms, kMaxTracedSims);
  std::vector<SimRun> traced;
  for (const SimRun& run : untraced) {
    traced.push_back(run_traced(workload, run.index, lanes[0]));
  }
  if (!workload.serve) {
    window = serve_window(workload.mix, direct, socket_path, 0.0,
                          workload.mix.size() / kServeClients, &lanes);
  }
  tally.failed += check_sims(untraced, references) + check_sims(traced, references) +
                  window.failed;
  tally.attempted += untraced.size() + traced.size() + window.jobs.size() +
                     window.client_errors;

  report_sim_layers(report, traced, untraced);
  report_serve_layers(report, workload.mix, window);
  print_self_times(lanes);
  const std::string trace_path = options.out_dir + "/trace-" + workload.name + "-seed" +
                                 std::to_string(options.seed) + ".json";
  write_trace(trace_path, workload.name, machine, lanes, epoch);
  std::cout << "trace written to " << trace_path << '\n';
}

int run_benchmark(const Options& options) {
  const Workload workload = make_workload(options.workload, options.seed, options.size);
  const std::size_t setup_reps = options.size == Size::kTiny ? 3 : 60;
  const std::string socket_path =
      options.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const Value machine = fingerprint(workload);
  std::cout << "poqbench " << workload.name << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace << '\n'
            << "fingerprint " << machine.dump() << '\n';
  Report report;
  Tally tally;
  if (options.trace) {
    measure_layers(workload, options, socket_path, machine, report, tally);
    return report.finish(tally.attempted, tally.failed);
  }
  const double rss_mb =
      workload.serve
          ? measure_serve(workload, options.seconds, setup_reps, socket_path, report, tally)
          : measure_sims(workload, options.seconds, setup_reps, report, tally);
  report.add("peak_rss_mb", rss_mb, "MiB", "read right after the timed window");
  report.add("success_frac",
             1.0 - static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
             "ratio",
             std::to_string(tally.failed) + " failed of " + std::to_string(tally.attempted));
  return report.finish(tally.attempted, tally.failed);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "poqbench: " << error.what()
              << "\nusage: poqbench --workload fig5_dense|megascale_t4|serve_mix "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR]\n";
    return 2;
  }
  try {
    return run_benchmark(options);
  } catch (const std::exception& error) {
    std::cerr << "poqbench: " << error.what() << '\n';
    return 1;
  }
}
