// Message-driven vertex-program substrate.
//
// The phase-kernel protocols share state through the PairLedger; the
// control-plane protocols (distributed, async_routing) share nothing —
// each node owns local state, learns about the rest of the network only
// through typed messages, and acts when something it can observe changed.
// VertexProgram is the substrate for that second family, in the
// signal/apply/scatter shape of GraphLab-style vertex programs:
//
//   * nodes hold local state (owned by the driver, one slot per vertex);
//   * an *apply* kernel consumes each vertex's inbox and may mutate only
//     that vertex's state;
//   * sends go through per-shard outboxes and *signal* marks the vertices
//     whose cached decisions must be recomputed.
//
// Time advances in epochs (fixed dt chosen by the driver). Within an
// epoch the driver alternates parallel kernels (fanned across the
// ParallelTickEngine worker pool) with serial canonical phases that may
// touch shared state (ground-truth physics, the ledger).
//
// Determinism contract — canonical message merge: every message has a
// canonical position (deliver epoch, send phase, sender, per-sender send
// index), independent of the threads/shards partitioning:
//   * a parallel kernel iterates an ascending entity list; shard s covers
//     a contiguous ascending slice, so concatenating the per-shard
//     outboxes in shard order yields ascending-sender, program-send-order
//     — the same sequence for every shard count (seal() per kernel keeps
//     different kernels' sends from interleaving shard-wise);
//   * serial-phase sends append after the epoch's sealed kernels in call
//     order, which is itself canonical;
//   * delivery walks the due queue in that canonical order, so each
//     target's inbox is folded in a fixed sequence however many workers
//     carried the messages.
// With all randomness drawn from counter-based keyed streams
// (util::Rng::keyed per (tag, epoch, entity)), a vertex program's results
// are bit-identical for every threads/shards setting. The simulators
// always pass a pool (one thread runs inline); a null pool is the
// shard_count = 1 special case of the same code, kept as the inline
// reference the vertex-program tests compare the pooled runs against.
//
// The signaled-set reuses the PairLedger dirty-set discipline: relaxed
// atomic marks (safe from concurrent kernels), a per-epoch marking budget
// for fan-out marking loops, and an overflow latch that degrades to
// everything-signaled rather than paying unbounded precision (dense
// regimes recompute everything anyway).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sim/parallel_engine.hpp"
#include "util/error.hpp"

namespace poq::sim {

/// The vertices whose cached decisions must be recomputed because their
/// readable state changed. PairLedger dirty-set discipline: O(1) relaxed
/// atomic marks, a per-epoch budget charged by fan-out marking loops, and
/// an overflow latch that converts to everything-signaled at the epoch
/// boundary.
class SignalSet {
 public:
  /// Precision budget for fan-out marking loops, per vertex per epoch
  /// (mirrors PairLedger::kMarkingBudgetPerNode).
  static constexpr std::int64_t kBudgetPerVertex = 8;

  explicit SignalSet(std::size_t vertex_count);

  [[nodiscard]] std::size_t vertex_count() const { return bits_.size(); }

  /// Mark one vertex. Thread-safe (relaxed), callable from kernels.
  void signal(std::uint32_t vertex);
  /// Mark every vertex (serial).
  void signal_all();

  /// Charge `cost` against the epoch's marking budget before a fan-out
  /// marking loop of that size. Returns false — and latches the overflow
  /// — once the epoch's scans have cost more than the budget; the caller
  /// skips its loop (the latch makes everything signaled instead).
  /// Thread-safe (relaxed).
  bool charge(std::size_t cost);
  [[nodiscard]] bool overflowed() const {
    return overflow_.load(std::memory_order_relaxed) != 0;
  }

  /// Whether `vertex` is signaled (everything is, under the latch).
  [[nodiscard]] bool test(std::uint32_t vertex) const;
  /// Clear one vertex's mark (no-op under the latch — precision is gone
  /// for the epoch). Thread-safe against concurrent marks of *other*
  /// vertices; callers clear only vertices they own.
  void clear(std::uint32_t vertex);
  [[nodiscard]] std::size_t signaled_count() const;

  /// Epoch boundary: refill the budget; if the epoch overflowed, convert
  /// the latch back to bits conservatively (everything signaled).
  void reset_budget();

  /// Append all signaled vertices to `out` in ascending order and clear
  /// every mark (serial).
  std::size_t drain(std::vector<std::uint32_t>& out);

 private:
  [[nodiscard]] std::atomic<std::uint8_t>& relaxed(std::uint8_t& byte) const {
    return reinterpret_cast<std::atomic<std::uint8_t>&>(byte);
  }

  mutable std::vector<std::uint8_t> bits_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::int64_t> budget_{0};
  std::atomic<std::uint8_t> overflow_{0};
};

/// Typed message substrate for one vertex program. `Message` is the
/// driver's payload type (a struct or a std::variant for multi-kind
/// protocols). The driver owns the per-vertex state and the epoch loop;
/// VertexProgram owns delivery, the canonical merge, and the signals.
template <typename Message>
class VertexProgram {
 public:
  /// Per-shard send/signal surface handed to parallel kernels. Sends are
  /// buffered per shard and merged canonically at seal(); signals go to
  /// the shared SignalSet (relaxed marks).
  class Context {
   public:
    /// Queue `payload` for `target`, `delay_epochs` epochs from now.
    /// Parallel kernels cannot deliver into the epoch they run in, so the
    /// delay is clamped to >= 1; sub-epoch latencies are the driver's
    /// serial phase's business.
    void send(std::uint32_t target, std::uint64_t delay_epochs,
              Message payload) {
      outbox_.push_back(Pending{std::max<std::uint64_t>(1, delay_epochs),
                                target, std::move(payload)});
    }
    void signal(std::uint32_t vertex) { signals_->signal(vertex); }

   private:
    friend class VertexProgram;
    struct Pending {
      std::uint64_t delay = 1;
      std::uint32_t target = 0;
      Message payload;
    };
    std::vector<Pending> outbox_;
    SignalSet* signals_ = nullptr;
  };

  /// `pool` may be null (the inline reference): kernels then run on the
  /// caller with one shard — the same canonical orders, bit for bit.
  VertexProgram(std::size_t vertex_count, ParallelTickEngine* pool,
                std::size_t shard_count)
      : vertex_count_(vertex_count),
        pool_(pool),
        shard_count_(pool == nullptr ? 1 : std::max<std::size_t>(1, shard_count)),
        signals_(vertex_count),
        contexts_(shard_count_),
        inboxes_(vertex_count) {
    for (Context& context : contexts_) context.signals_ = &signals_;
  }

  [[nodiscard]] std::size_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  [[nodiscard]] SignalSet& signals() { return signals_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }

  /// Move the messages due at `epoch` into per-target inboxes, folding
  /// each inbox in canonical order, and return the targets with non-empty
  /// inboxes (ascending). Serial; call once per epoch, before kernels.
  const std::vector<std::uint32_t>& deliver(std::uint64_t epoch) {
    epoch_ = epoch;
    for (const std::uint32_t target : active_) inboxes_[target].clear();
    active_.clear();
    const auto due = pending_.find(epoch);
    if (due == pending_.end()) return active_;
    for (Envelope& envelope : due->second) {
      if (inboxes_[envelope.target].empty()) active_.push_back(envelope.target);
      inboxes_[envelope.target].push_back(std::move(envelope.payload));
      ++messages_delivered_;
    }
    pending_.erase(due);
    std::sort(active_.begin(), active_.end());
    return active_;
  }

  /// The targets returned by the last deliver() (ascending).
  [[nodiscard]] const std::vector<std::uint32_t>& active() const {
    return active_;
  }

  /// This epoch's inbox of `target`, in canonical merge order.
  [[nodiscard]] std::span<const Message> inbox(std::uint32_t target) const {
    return inboxes_[target];
  }

  /// Run `kernel(shard, context)` over every shard, fanned across the
  /// pool (inline without one). The kernel must partition its entity
  /// list with ParallelTickEngine::shard_range over shard_count() shards
  /// — ascending contiguous slices are what make seal() canonical.
  template <typename Kernel>
  void run_kernel(Kernel&& kernel) {
    if (pool_ == nullptr) {
      kernel(std::size_t{0}, contexts_[0]);
      seal();
      return;
    }
    pool_->run_shards(shard_count_, [this, &kernel](std::size_t shard) {
      kernel(shard, contexts_[shard]);
    });
    seal();
  }

  /// Serial-phase send: appends after everything the epoch's sealed
  /// kernels queued, in call order (canonical by construction).
  /// `delay_epochs` must be >= 1 — a serial phase applies sub-epoch
  /// effects itself instead of mailing them.
  void send(std::uint32_t target, std::uint64_t delay_epochs, Message payload) {
    require(delay_epochs >= 1,
            "VertexProgram::send: serial sends deliver next epoch at the "
            "earliest (apply sub-epoch effects directly)");
    pending_[epoch_ + delay_epochs].push_back(
        Envelope{target, std::move(payload)});
    ++messages_sent_;
  }

  /// Whether any message is still queued for a future epoch.
  [[nodiscard]] bool idle() const { return pending_.empty(); }

 private:
  struct Envelope {
    std::uint32_t target = 0;
    Message payload;
  };

  /// Merge the per-shard outboxes into the pending queue in canonical
  /// order: shard 0..S-1 concatenation == ascending-sender program order
  /// for every S, because each kernel walks an ascending contiguous
  /// entity slice per shard.
  void seal() {
    for (Context& context : contexts_) {
      for (typename Context::Pending& pending : context.outbox_) {
        pending_[epoch_ + pending.delay].push_back(
            Envelope{pending.target, std::move(pending.payload)});
        ++messages_sent_;
      }
      context.outbox_.clear();
    }
  }

  std::size_t vertex_count_;
  ParallelTickEngine* pool_;
  std::size_t shard_count_;
  SignalSet signals_;
  std::vector<Context> contexts_;
  std::uint64_t epoch_ = 0;
  /// deliver_epoch -> envelopes in canonical order. Keyed lookups only;
  /// the map's iteration order is never observed beyond the due bucket.
  std::map<std::uint64_t, std::vector<Envelope>> pending_;
  std::vector<std::vector<Message>> inboxes_;
  std::vector<std::uint32_t> active_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
};

}  // namespace poq::sim
