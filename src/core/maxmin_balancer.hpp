// The paper's max-min distributed swapping protocol (§4).
//
// Node x, holding pairs toward y and y', may perform the swap
// y' <- x -> y. The swap is *preferable* when
//
//   C_y(y') + 1 <= min( C_x(y) - D_{x,y},  C_x(y') - D_{x,y'} )
//
// i.e. x only spends its own counts when the beneficiary pair would still
// be no better off than either donor pair after the swap. Among multiple
// preferable candidates x picks the one with minimal C_y(y'); with
// generation and consumption frozen this greedy process drives the count
// vector to a max-min fair fixed point (no count can rise without lowering
// a smaller one; cf. Jaffe's bottleneck allocation [16]).
//
// §6 extensions implemented as policy knobs:
//   * detour_slack: forbid swaps where x is far off the generation-graph
//     y--y' geodesic ("reducing the likelihood that node i, very distant
//     from both x and y ... implements a swap between x and y").
//   * beneficiary counts can be read through a stale view (gossip.hpp)
//     instead of ground truth.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/ledger.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace poq::core {

/// A chosen swap y' <- x -> y (left = y', right = y).
struct SwapCandidate {
  NodeId left = 0;
  NodeId right = 0;
  /// C_left(right) at decision time (through the decision view).
  std::uint32_t beneficiary_count = 0;
};

/// Optional §6 policy restrictions.
struct BalancerPolicy {
  /// If set, candidate (y, y') at node x is allowed only when
  /// dist(y,x) + dist(x,y') <= dist(y,y') + detour_slack in the
  /// generation graph. Requires distances to be supplied.
  std::optional<std::uint32_t> detour_slack;
};

/// Stateless decision engine for the §4 rule; all mutable state lives in
/// the PairLedger so alternative knowledge models can reuse the logic.
class MaxMinBalancer {
 public:
  /// `generation_distances` (all-pairs hop counts, aligned with node ids)
  /// is required iff policy.detour_slack is set; the caller keeps it alive.
  MaxMinBalancer(DistillationMatrix distillation, BalancerPolicy policy = {},
                 const std::vector<std::vector<std::uint32_t>>* generation_distances =
                     nullptr);

  /// The §4 preferability predicate, evaluated on true counts.
  [[nodiscard]] bool is_preferable(const PairLedger& ledger, NodeId x, NodeId left,
                                   NodeId right) const;

  /// Preferability with the beneficiary count supplied by the caller
  /// (stale-view protocols re-check commits against live *own* counts but
  /// a frozen view of C_left(right)); x's capacities read `ledger`.
  [[nodiscard]] bool is_preferable_given_beneficiary(const PairLedger& ledger,
                                                     NodeId x, NodeId left,
                                                     NodeId right,
                                                     std::uint32_t beneficiary) const;

  /// A partner x holds enough pairs toward to spend on a swap.
  struct Eligible {
    NodeId node;
    double capacity;  // C_x(node) - D_{x,node}
  };

  /// Reusable per-caller scratch for the candidate scan. best_swap is
  /// read-only on the ledger and the balancer, so concurrent callers (the
  /// sharded decide phase) are safe as long as each brings its own
  /// Scratch.
  struct Scratch {
    std::vector<Eligible> eligible;

    /// Pre-size for networks of `node_count` nodes (at most node_count-1
    /// partners are ever eligible), so the per-node scan never allocates.
    void reserve(std::size_t node_count) {
      eligible.reserve(node_count > 0 ? node_count - 1 : 0);
    }
  };

  /// Best preferable swap at x under true (global) knowledge; nullopt when
  /// no candidate is preferable.
  [[nodiscard]] std::optional<SwapCandidate> best_swap(const PairLedger& ledger,
                                                       NodeId x) const;

  /// Thread-safe variant: identical decision, caller-owned scratch.
  [[nodiscard]] std::optional<SwapCandidate> best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const;

  /// Best preferable swap where the *beneficiary* count C_y(y') is read
  /// through `view(y, y')` (possibly stale); x's own counts are always
  /// ground truth (x owns them).
  template <typename View>
  [[nodiscard]] std::optional<SwapCandidate> best_swap_with_view(
      const PairLedger& ledger, NodeId x, View&& view) const {
    return best_swap_with_view(ledger, x, std::forward<View>(view), scratch_);
  }

  /// Thread-safe variant of best_swap_with_view with caller-owned scratch.
  template <typename View>
  [[nodiscard]] std::optional<SwapCandidate> best_swap_with_view(
      const PairLedger& ledger, NodeId x, View&& view, Scratch& scratch) const {
    return scan(ledger, x, scratch, [&view](NodeId a) {
      return [&view, a](NodeId b) -> std::uint32_t { return view(a, b); };
    });
  }

  /// Execute left <- x -> right on the ledger: consumes D_{x,right} pairs
  /// of (x,right) and D_{x,left} of (x,left) (fractional D uses
  /// probabilistic rounding via `rng`), produces one (left,right) pair.
  /// Returns the amounts actually consumed.
  struct Execution {
    std::uint32_t consumed_left = 0;
    std::uint32_t consumed_right = 0;
  };
  Execution execute_swap(PairLedger& ledger, NodeId x, NodeId left, NodeId right,
                         util::Rng& rng) const;

  [[nodiscard]] const DistillationMatrix& distillation() const { return distillation_; }

 private:
  [[nodiscard]] bool detour_allowed(NodeId x, NodeId a, NodeId b) const;

  /// The §4 candidate scan, shared by every knowledge model. x's eligible
  /// partners come from one pass over x's ledger row; then every pair
  /// (a, b) of them, a < b in ascending partner order, is tested with the
  /// beneficiary count `row_of(a)(b)`. `row_of(a)` is called once per
  /// outer partner, so a ground-truth view can hoist a's row out of the
  /// inner loop. The first strictly smaller beneficiary wins; a zero one
  /// cannot be beaten and ends the scan.
  template <typename RowOf>
  [[nodiscard]] std::optional<SwapCandidate> scan(const PairLedger& ledger,
                                                  NodeId x, Scratch& scratch,
                                                  RowOf&& row_of) const {
    const auto partner_list = ledger.partners(x);
    const auto own_counts = ledger.partner_counts(x);
    std::vector<Eligible>& eligible = scratch.eligible;
    eligible.clear();
    for (std::size_t k = 0; k < partner_list.size(); ++k) {
      const NodeId y = partner_list[k];
      const double cap =
          static_cast<double>(own_counts[k]) - distillation_.at(x, y);
      if (cap >= 1.0) eligible.push_back(Eligible{y, cap});
    }
    std::optional<SwapCandidate> best;
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      const NodeId a = eligible[i].node;
      const auto beneficiary_of = row_of(a);
      for (std::size_t j = i + 1; j < eligible.size(); ++j) {
        const NodeId b = eligible[j].node;
        const double cap = std::min(eligible[i].capacity, eligible[j].capacity);
        const std::uint32_t beneficiary = beneficiary_of(b);
        if (static_cast<double>(beneficiary) + 1.0 > cap) continue;
        if (!detour_allowed(x, a, b)) continue;
        if (!best || beneficiary < best->beneficiary_count) {
          best = SwapCandidate{a, b, beneficiary};
          if (beneficiary == 0) return best;  // cannot improve further
        }
      }
    }
    return best;
  }

  DistillationMatrix distillation_;
  BalancerPolicy policy_;
  const std::vector<std::vector<std::uint32_t>>* generation_distances_;
  mutable Scratch scratch_;  // single-threaded convenience path only
};

}  // namespace poq::core
