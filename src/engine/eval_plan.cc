#include "engine/eval_plan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "telemetry/span.h"
#include "util/check.h"
#include "util/random.h"

namespace wavebatch {

Result<std::shared_ptr<const EvalPlan>> EvalPlan::Build(
    const QueryBatch& batch, const LinearStrategy& strategy,
    std::shared_ptr<const PenaltyFunction> penalty) {
  telemetry::ScopedSpan span("plan_build");
  Result<MasterList> list = MasterList::Build(batch, strategy);
  if (!list.ok()) return list.status();
  return FromMasterList(
      std::make_shared<const MasterList>(std::move(list).value()),
      std::move(penalty));
}

std::shared_ptr<const EvalPlan> EvalPlan::FromMasterList(
    std::shared_ptr<const MasterList> list,
    std::shared_ptr<const PenaltyFunction> penalty) {
  WB_CHECK(list != nullptr);
  return std::shared_ptr<const EvalPlan>(
      new EvalPlan(std::move(list), std::move(penalty)));
}

EvalPlan::EvalPlan(std::shared_ptr<const MasterList> list,
                   std::shared_ptr<const PenaltyFunction> penalty)
    : list_(std::move(list)), penalty_(std::move(penalty)) {
  const size_t n = list_->size();
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  const std::vector<uint32_t>& uses_query = list_->uses_query();
  const std::vector<double>& uses_coeff = list_->uses_coeff();

  // Importances: the penalty applied to the column of query coefficients at
  // each entry, scattered into one buffer and cleared again after each
  // entry. The total is summed in entry order — the same floating-point
  // sequence as the reference evaluator, so sessions reproduce its bounds
  // bit for bit.
  if (penalty_ != nullptr) {
    importance_.resize(n);
    std::vector<double> column(list_->num_queries(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
        column[uses_query[r]] = uses_coeff[r];
      }
      importance_[i] = penalty_->Apply(column);
      for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
        column[uses_query[r]] = 0.0;
      }
      total_importance_ += importance_[i];
    }
  }

  // kKeyOrder: master lists are ascending by key, so identity.
  key_order_.resize(n);
  for (size_t i = 0; i < n; ++i) key_order_[i] = i;

  // kBiggestB: a max-heap of (importance, index) pairs pops them in
  // descending pair order — all pairs are distinct (indices are unique), so
  // the pop sequence IS the descending sort, ties on importance breaking
  // toward the larger index.
  if (penalty_ != nullptr) {
    biggest_b_ = key_order_;
    std::sort(biggest_b_.begin(), biggest_b_.end(),
              [this](size_t a, size_t b) {
                return std::make_pair(importance_[a], a) >
                       std::make_pair(importance_[b], b);
              });
  }

  // kRoundRobin: each query walks its own coefficients in decreasing
  // magnitude, one per round; an entry already consumed by an earlier query
  // is skipped, i.e. the raw round-robin sequence collapses onto first
  // appearances. Each per-query sort is the exact std::sort call the
  // reference evaluator makes (same comparator, same input sequence), so
  // equal-magnitude ties resolve identically.
  {
    std::vector<std::vector<std::pair<double, size_t>>> per_query(
        list_->num_queries());
    for (size_t i = 0; i < n; ++i) {
      for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
        per_query[uses_query[r]].emplace_back(std::abs(uses_coeff[r]), i);
      }
    }
    for (auto& v : per_query) {
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
        return a.first > b.first;
      });
    }
    std::vector<bool> taken(n, false);
    round_robin_.reserve(n);
    for (size_t round = 0;; ++round) {
      bool any = false;
      for (const auto& v : per_query) {
        if (round >= v.size()) continue;
        any = true;
        const size_t entry = v[round].second;
        if (!taken[entry]) {
          taken[entry] = true;
          round_robin_.push_back(entry);
        }
      }
      if (!any) break;
    }
    WB_CHECK_EQ(round_robin_.size(), n);
  }
}

std::span<const size_t> EvalPlan::Permutation(ProgressionOrder order) const {
  switch (order) {
    case ProgressionOrder::kBiggestB:
      WB_CHECK(penalty_ != nullptr)
          << "kBiggestB needs a penalty (plan was built without one)";
      return biggest_b_;
    case ProgressionOrder::kRoundRobin:
      return round_robin_;
    case ProgressionOrder::kKeyOrder:
      return key_order_;
    case ProgressionOrder::kRandom:
      break;
  }
  WB_CHECK(false) << "kRandom is seed-dependent: use RandomPermutation(seed)";
  return {};
}

std::vector<size_t> EvalPlan::RandomPermutation(uint64_t seed) const {
  std::lock_guard<std::mutex> lock(random_mu_);
  if (!random_cached_ || random_seed_ != seed) {
    random_perm_ = key_order_;
    Rng rng(seed);
    rng.Shuffle(random_perm_);
    random_seed_ = seed;
    random_cached_ = true;
  }
  return random_perm_;
}

}  // namespace wavebatch
