// Intra-run parallel tick engine.
//
// The round-based simulators decompose each tick into phases whose work
// factors over independent entities (generation over edges, swap decisions
// over nodes). ParallelTickEngine is the worker pool that executes such a
// phase: the caller partitions the entity range into `shard_count` shards
// and the pool runs one callback per shard across its threads, blocking
// until every shard has finished.
//
// Determinism contract (leaned on by the parallel_determinism test suite
// and the BENCH_parallel_scaling gate): the engine itself never introduces
// nondeterminism. Shards are identified by index, randomness comes from
// counter-based streams keyed per entity (util::Rng::keyed), and callers
// merge shard effects in canonical shard order — so a run's results are
// bit-identical for every thread count and every shard count. Threads and
// shards are pure performance knobs.
//
// The pool threads are created once and parked on a condition variable
// between phases, so driving ~10^4 rounds × 2 phases through the engine
// costs two notify/wait handshakes per phase, not two thread spawns. With
// one thread (or one shard) the engine runs inline on the caller with no
// synchronization at all.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace poq::sim {

/// The tick discipline of the round-based simulators. There is one: the
/// sharded deterministic engine, whose generation draws come from
/// counter-based per-(round, edge) streams and whose swap decisions are
/// computed against the post-generation snapshot (in parallel across node
/// shards) and committed in canonical node order with per-(round, node)
/// streams. Results are bit-identical for every threads/shards setting,
/// and threads=1 runs the same phases inline on the caller. The enum and
/// TickConcurrency::mode survive only because perfbench/poqbench.cpp
/// assigns the field; nothing in src/ reads it, and both go once that
/// benchmark program drops the assignment.
enum class TickMode {
  kSharded,
};

/// Stream tags for the counter-based RNG keying used by sharded phases:
/// util::Rng::keyed(seed, tag, round, entity). Distinct tags keep phase
/// streams decorrelated however rounds and entity ids collide.
namespace stream_tag {
inline constexpr std::uint64_t kGeneration = 0x67656E65726174ULL;  // "generat"
inline constexpr std::uint64_t kSwap = 0x73776170ULL;              // "swap"
inline constexpr std::uint64_t kGossip = 0x676F73736970ULL;        // "gossip"
inline constexpr std::uint64_t kEventTimes = 0x6576656E74ULL;      // "event"
inline constexpr std::uint64_t kEventDraw = 0x64726177ULL;         // "draw"
// Vertex-program epochs (distributed, async_routing): per-(epoch, node)
// scan/report schedules, per-(epoch, node) swap correction bits, and the
// per-epoch request arrival stream.
inline constexpr std::uint64_t kScan = 0x7363616EULL;      // "scan"
inline constexpr std::uint64_t kReport = 0x7265706F7274ULL;  // "report"
inline constexpr std::uint64_t kSwapBits = 0x73626974ULL;  // "sbit"
inline constexpr std::uint64_t kArrival = 0x61727276ULL;   // "arrv"
// Streaming consumption workload (balancing family): the per-round
// request-arrival draw keyed (seed, tag, round, 0), and the lazy
// consumer-pool pair derivation keyed (seed, tag, pool index, 0) — the
// pool itself is never materialized.
inline constexpr std::uint64_t kConsumerArrival = 0x63617272ULL;  // "carr"
inline constexpr std::uint64_t kConsumerPair = 0x63706169ULL;     // "cpai"
// Fault-injection phase (sim::FaultPlan): per-(round, node) crash/recover
// transitions, per-(round, edge) link down/up transitions, and the
// per-round generation-rate degradation draw. Serial phase — the keying
// only guarantees the streams stay decorrelated from every kernel above.
inline constexpr std::uint64_t kFaultNode = 0x666C746EULL;  // "fltn"
inline constexpr std::uint64_t kFaultLink = 0x666C746CULL;  // "fltl"
inline constexpr std::uint64_t kFaultRate = 0x666C7472ULL;  // "fltr"
}  // namespace stream_tag

/// The intra-run concurrency knobs every ported simulator carries.
struct TickConcurrency {
  /// Unread; see TickMode.
  TickMode mode = TickMode::kSharded;
  /// Worker threads (0 = hardware; 1 runs every phase inline on the
  /// caller). Never affects results.
  std::uint32_t threads = 1;
  /// Work shards per phase (0 = auto). Never affects results.
  std::uint32_t shards = 0;
  /// Incremental dirty-set swap decide: re-run best_swap only over the
  /// nodes whose readable counts changed since their last decision
  /// (false = full rescan every round). An unchanged readable view
  /// implies an unchanged decision, so this never affects results either
  /// — it is the steady-state hot-path knob the BENCH_hotpath suite
  /// measures.
  bool incremental_decide = true;
};

/// Per-phase chunk-load accounting from the dynamic chunk scheduler:
/// max/total wall-clock across the chunks a phase dispatched, cumulative
/// over a run. max/(total/chunks) is the scheduler's load-imbalance
/// signal (1.0 = perfectly even chunks), surfaced as the shard_imbalance
/// timings. Observability only — never part of the determinism contract.
struct ChunkLoad {
  std::uint64_t max_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t chunks = 0;
  /// Max-over-mean chunk time (0 when the phase never dispatched chunks).
  [[nodiscard]] double imbalance() const {
    if (chunks == 0 || total_ns == 0) return 0.0;
    return static_cast<double>(max_ns) * static_cast<double>(chunks) /
           static_cast<double>(total_ns);
  }
};

/// Cumulative wall-clock nanoseconds spent in each phase kernel of one
/// run. Pure observability: timings ride along in RunMetrics/BENCH JSON
/// but are explicitly outside the determinism contract (like wall_ms) and
/// are never compared by the regression gates.
struct PhaseTimers {
  std::uint64_t generate_ns = 0;
  std::uint64_t decide_ns = 0;
  std::uint64_t commit_ns = 0;
  std::uint64_t decohere_ns = 0;
  ChunkLoad generate_load;
  ChunkLoad decide_load;
  ChunkLoad decohere_load;
};

/// RAII accumulator for one PhaseTimers field: adds the scope's elapsed
/// wall-clock on destruction. The single timing implementation for every
/// phase accounting site (NetworkState kernels, the fidelity slice
/// kernels).
class PhaseStopwatch {
 public:
  explicit PhaseStopwatch(std::uint64_t& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseStopwatch() {
    sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  PhaseStopwatch(const PhaseStopwatch&) = delete;
  PhaseStopwatch& operator=(const PhaseStopwatch&) = delete;

 private:
  std::uint64_t& sink_;
  std::chrono::steady_clock::time_point start_;
};

class ParallelTickEngine {
 public:
  /// `threads` = worker threads the engine may use, caller included;
  /// 0 = hardware concurrency. The pool spawns threads-1 workers.
  explicit ParallelTickEngine(unsigned threads = 0);
  ~ParallelTickEngine();

  ParallelTickEngine(const ParallelTickEngine&) = delete;
  ParallelTickEngine& operator=(const ParallelTickEngine&) = delete;

  [[nodiscard]] unsigned thread_count() const { return threads_; }

  /// Execute `shard_fn(shard)` for every shard in [0, shard_count), fanned
  /// across the pool (the calling thread participates). Blocks until all
  /// shards complete; the first exception thrown by any shard is rethrown
  /// on the caller after the phase drains. Not reentrant: a shard callback
  /// must not call back into the same engine.
  void run_shards(std::size_t shard_count,
                  const std::function<void(std::size_t)>& shard_fn);

  /// Chunked dynamic scheduling (deterministic work stealing): split
  /// [0, items) into canonical contiguous chunks of `grain` entities
  /// (the last chunk may be short) and run
  /// `chunk_fn(begin, end, worker)` for each, with chunks claimed off an
  /// atomic cursor by whichever worker is free. Chunk boundaries depend
  /// only on (items, grain) — never on the thread count or the claiming
  /// schedule — so per-chunk effects merged in ascending chunk order
  /// replay canonical entity order and results are bit-identical at every
  /// threads setting. `worker` (< thread_count(), 0 = the caller) indexes
  /// per-worker scratch only; results must never depend on it. When
  /// `load` is non-null each chunk's wall-clock is accumulated into it
  /// (max/total/count) for the shard_imbalance observability. Blocks
  /// until all chunks complete; first exception rethrown on the caller.
  /// Not reentrant.
  using ChunkFn = std::function<void(std::size_t begin, std::size_t end,
                                     unsigned worker)>;
  void run_chunks(std::size_t items, std::size_t grain, ChunkLoad* load,
                  const ChunkFn& chunk_fn);

  /// Resolve a threads knob: 0 = hardware concurrency (minimum 1).
  [[nodiscard]] static unsigned resolve_threads(unsigned requested);

  /// Resolve the chunk grain for `items` entities: an explicit shards
  /// knob partitions the range into that many near-equal chunks (its
  /// pre-chunking meaning); 0 = auto, the kernel's default grain. Pure
  /// performance knob — grain never affects results.
  [[nodiscard]] static std::size_t resolve_grain(std::uint32_t requested_shards,
                                                 std::size_t items,
                                                 std::size_t default_grain);

  /// Contiguous [begin, end) range of shard `shard` when `items` entities
  /// are split into `shard_count` near-equal blocks. Trailing shards may
  /// be empty when shard_count > items (n-smaller-than-shards is legal).
  [[nodiscard]] static std::pair<std::size_t, std::size_t> shard_range(
      std::size_t items, std::size_t shard_count, std::size_t shard);

  /// Resolve a shards knob for `items` entities: explicit values pass
  /// through; 0 = auto (a few shards per pool thread, for balance).
  [[nodiscard]] std::size_t resolve_shards(std::uint32_t requested,
                                           std::size_t items) const;

 private:
  /// One run_shards/run_chunks call's parameters. `body` takes (index,
  /// worker): run_shards and run_chunks adapt their callbacks through the
  /// pre-built members below, so dispatching a phase never constructs (or
  /// allocates) a std::function. Two slots, selected by generation parity,
  /// so a worker that woke for phase g and lags behind reads g's own count
  /// while phase g+1 is being published into the other slot.
  struct Phase {
    const std::function<void(std::size_t, unsigned)>* body = nullptr;
    std::atomic<std::uint32_t> count{0};
  };

  void worker_loop(unsigned worker);
  void drain(std::uint32_t generation, unsigned worker);
  void dispatch(std::size_t count,
                const std::function<void(std::size_t, unsigned)>& body);
  void run_one_chunk(std::size_t chunk, unsigned worker);

  unsigned threads_ = 1;

  // Phase contexts for the pre-built adapter bodies (single-word lambda
  // captures keep the std::function in its small-object buffer; the
  // contexts live here because run_* is not reentrant anyway).
  const std::function<void(std::size_t)>* shard_fn_ = nullptr;
  const ChunkFn* chunk_fn_ = nullptr;
  std::size_t chunk_items_ = 0;
  std::size_t chunk_grain_ = 1;
  ChunkLoad* chunk_load_ = nullptr;
  std::function<void(std::size_t, unsigned)> shard_body_;
  std::function<void(std::size_t, unsigned)> chunk_body_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  /// Bumps once per dispatch; guarded by mutex_. Workers wake on a change
  /// and tag their claims with the generation they woke for.
  std::uint32_t generation_ = 0;
  Phase phases_[2];
  /// Claim cursor: generation (high 32 bits) | next unclaimed index (low
  /// 32 bits). A claim is a compare-exchange on the whole word, so a
  /// worker still holding an earlier generation can never take (or skip)
  /// an index of the current phase: its claim simply fails. The engine
  /// owns every phase's state outright — no shared ownership, nothing to
  /// allocate, and no need to wait for workers that claimed nothing.
  std::atomic<std::uint64_t> cursor_{0};
  std::size_t completed_ = 0;  // indices finished this phase, guarded by mutex_
  std::exception_ptr error_;   // first failure this phase, guarded by mutex_

  std::vector<std::thread> workers_;
};

}  // namespace poq::sim
