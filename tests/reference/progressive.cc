#include "reference/progressive.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/random.h"

namespace wavebatch {

ProgressiveEvaluator::ProgressiveEvaluator(const MasterList* list,
                                           const PenaltyFunction* penalty,
                                           const CoefficientStore* store,
                                           ProgressionOrder order,
                                           uint64_t seed)
    : list_(list), penalty_(penalty), store_(store), order_(order) {
  WB_CHECK(list_ != nullptr);
  WB_CHECK(penalty_ != nullptr);
  WB_CHECK(store_ != nullptr);
  estimates_.assign(list_->num_queries(), 0.0);
  fetched_.assign(list_->size(), false);

  // Step 4 of Batch-Biggest-B: compute ι_p(ξ) for every master-list entry
  // by applying the penalty to the column of query coefficients at ξ.
  importance_.resize(list_->size());
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  const std::vector<uint32_t>& uses_query = list_->uses_query();
  const std::vector<double>& uses_coeff = list_->uses_coeff();
  std::vector<double> column(list_->num_queries(), 0.0);
  for (size_t i = 0; i < list_->size(); ++i) {
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      column[uses_query[r]] = uses_coeff[r];
    }
    importance_[i] = penalty_->Apply(column);
    remaining_importance_ += importance_[i];
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      column[uses_query[r]] = 0.0;
    }
  }

  BuildOrder(order, seed);
}

void ProgressiveEvaluator::BuildOrder(ProgressionOrder order, uint64_t seed) {
  switch (order) {
    case ProgressionOrder::kBiggestB: {
      std::vector<HeapItem> items;
      items.reserve(list_->size());
      for (size_t i = 0; i < list_->size(); ++i) {
        items.emplace_back(importance_[i], i);
      }
      heap_ = std::priority_queue<HeapItem>(std::less<HeapItem>(),
                                            std::move(items));
      return;
    }
    case ProgressionOrder::kRoundRobin: {
      // Per query: its entries ordered by decreasing |own coefficient|.
      std::vector<std::vector<std::pair<double, size_t>>> per_query(
          list_->num_queries());
      const std::vector<uint64_t>& offsets = list_->uses_offsets();
      for (size_t i = 0; i < list_->size(); ++i) {
        for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
          per_query[list_->uses_query()[r]].emplace_back(
              std::abs(list_->uses_coeff()[r]), i);
        }
      }
      for (auto& v : per_query) {
        std::sort(v.begin(), v.end(),
                  [](const auto& a, const auto& b) { return a.first > b.first; });
      }
      sequence_.reserve(list_->TotalQueryCoefficients());
      for (size_t round = 0;; ++round) {
        bool any = false;
        for (const auto& v : per_query) {
          if (round < v.size()) {
            sequence_.push_back(v[round].second);
            any = true;
          }
        }
        if (!any) break;
      }
      return;
    }
    case ProgressionOrder::kRandom: {
      sequence_.resize(list_->size());
      for (size_t i = 0; i < list_->size(); ++i) sequence_[i] = i;
      Rng rng(seed);
      rng.Shuffle(sequence_);
      return;
    }
    case ProgressionOrder::kKeyOrder: {
      sequence_.resize(list_->size());
      for (size_t i = 0; i < list_->size(); ++i) sequence_[i] = i;
      return;
    }
  }
  WB_CHECK(false) << "unknown ProgressionOrder";
}

size_t ProgressiveEvaluator::NextEntry() const {
  if (order_ == ProgressionOrder::kBiggestB) {
    WB_CHECK(!heap_.empty());
    return heap_.top().second;
  }
  while (cursor_ < sequence_.size() && fetched_[sequence_[cursor_]]) {
    ++cursor_;
  }
  WB_CHECK_LT(cursor_, sequence_.size());
  return sequence_[cursor_];
}

size_t ProgressiveEvaluator::PopNext() {
  size_t entry_idx;
  if (order_ == ProgressionOrder::kBiggestB) {
    entry_idx = heap_.top().second;
    heap_.pop();
  } else {
    entry_idx = NextEntry();
    ++cursor_;
  }
  WB_CHECK(!fetched_[entry_idx]);
  fetched_[entry_idx] = true;
  ++steps_taken_;
  remaining_importance_ -= importance_[entry_idx];
  return entry_idx;
}

size_t ProgressiveEvaluator::Step() {
  WB_CHECK(!Done()) << "Step() after completion";
  const size_t entry_idx = PopNext();
  // Crash-on-error reference (fault tolerance is the engine's job).
  const double data = store_->Fetch(list_->keys()[entry_idx], &io_).value();
  ApplyEntry(entry_idx, data);
  return entry_idx;
}

void ProgressiveEvaluator::ApplyEntry(size_t entry_idx, double data) {
  if (data == 0.0) return;
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  for (uint64_t r = offsets[entry_idx]; r < offsets[entry_idx + 1]; ++r) {
    estimates_[list_->uses_query()[r]] += list_->uses_coeff()[r] * data;
  }
}

size_t ProgressiveEvaluator::StepBatch(size_t n) {
  n = std::min<size_t>(n, TotalSteps() - StepsTaken());
  if (n == 0) return 0;
  std::vector<size_t> popped;
  popped.reserve(n);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t entry_idx = PopNext();
    popped.push_back(entry_idx);
    keys.push_back(list_->keys()[entry_idx]);
  }
  std::vector<double> values(keys.size());
  WB_CHECK_OK(store_->FetchBatch(keys, values, &io_));
  // Apply in pop order: the identical floating-point accumulation sequence
  // a scalar Step() loop would produce.
  for (size_t i = 0; i < popped.size(); ++i) ApplyEntry(popped[i], values[i]);
  return n;
}

double ProgressiveEvaluator::NextImportance() const {
  if (Done()) return 0.0;
  if (order_ == ProgressionOrder::kBiggestB) return heap_.top().first;
  return importance_[NextEntry()];
}

double ProgressiveEvaluator::WorstCaseBound(double k_sum_abs) const {
  return std::pow(k_sum_abs, penalty_->HomogeneityDegree()) *
         NextImportance();
}

double ProgressiveEvaluator::ExpectedPenalty(uint64_t domain_cells) const {
  WB_CHECK_GT(domain_cells, 0u);
  // Clamp tiny negative drift from repeated subtraction.
  const double remaining = std::max(remaining_importance_, 0.0);
  return remaining / static_cast<double>(domain_cells);
}

}  // namespace wavebatch
