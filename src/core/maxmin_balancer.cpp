#include "core/maxmin_balancer.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace poq::core {

MaxMinBalancer::MaxMinBalancer(
    DistillationMatrix distillation, BalancerPolicy policy,
    const std::vector<std::vector<std::uint32_t>>* generation_distances)
    : distillation_(std::move(distillation)),
      policy_(policy),
      generation_distances_(generation_distances) {
  require(!policy_.detour_slack.has_value() || generation_distances_ != nullptr,
          "MaxMinBalancer: detour policy requires generation distances");
}

bool MaxMinBalancer::detour_allowed(NodeId x, NodeId a, NodeId b) const {
  if (!policy_.detour_slack) return true;
  const auto& dist = *generation_distances_;
  const std::uint64_t through_x =
      static_cast<std::uint64_t>(dist[a][x]) + dist[x][b];
  const std::uint64_t direct = dist[a][b];
  return through_x <= direct + *policy_.detour_slack;
}

bool MaxMinBalancer::is_preferable(const PairLedger& ledger, NodeId x, NodeId left,
                                   NodeId right) const {
  return is_preferable_given_beneficiary(ledger, x, left, right,
                                         ledger.count(left, right));
}

bool MaxMinBalancer::is_preferable_given_beneficiary(
    const PairLedger& ledger, NodeId x, NodeId left, NodeId right,
    std::uint32_t beneficiary) const {
  require(left != right && left != x && right != x,
          "is_preferable: swap endpoints must be three distinct nodes");
  const double cap_right =
      static_cast<double>(ledger.count(x, right)) - distillation_.at(x, right);
  const double cap_left =
      static_cast<double>(ledger.count(x, left)) - distillation_.at(x, left);
  if (static_cast<double>(beneficiary) + 1.0 > std::min(cap_left, cap_right)) {
    return false;
  }
  return detour_allowed(x, left, right);
}

std::optional<SwapCandidate> MaxMinBalancer::best_swap(const PairLedger& ledger,
                                                       NodeId x) const {
  return best_swap(ledger, x, scratch_);
}

std::optional<SwapCandidate> MaxMinBalancer::best_swap(const PairLedger& ledger,
                                                       NodeId x,
                                                       Scratch& scratch) const {
  // Ground truth reads C_a(b) from a's row, hoisted once per outer
  // partner: the same value count(a, b) returns (the ledger is symmetric),
  // without re-loading a's row header for every b.
  return scan(ledger, x, scratch, [&ledger](NodeId a) {
    return [partners = ledger.partners(a),
            counts = ledger.partner_counts(a)](NodeId b) {
      return PairLedger::count_in_row(partners, counts, b);
    };
  });
}

MaxMinBalancer::Execution MaxMinBalancer::execute_swap(PairLedger& ledger, NodeId x,
                                                       NodeId left, NodeId right,
                                                       util::Rng& rng) const {
  const auto rounded = [&rng](double d) {
    const double floor_part = std::floor(d);
    const double frac = d - floor_part;
    auto amount = static_cast<std::uint32_t>(floor_part);
    if (frac > 0.0 && rng.bernoulli(frac)) ++amount;
    return amount;
  };
  Execution execution;
  execution.consumed_left = rounded(distillation_.at(x, left));
  execution.consumed_right = rounded(distillation_.at(x, right));
  ledger.remove(x, left, execution.consumed_left);
  ledger.remove(x, right, execution.consumed_right);
  ledger.add(left, right, 1);
  return execution;
}

}  // namespace poq::core
