#ifndef WAVEBATCH_ENGINE_EVAL_PLAN_H_
#define WAVEBATCH_ENGINE_EVAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/master_list.h"
#include "engine/apply_kernel.h"
#include "penalty/penalty.h"
#include "query/batch.h"
#include "strategy/linear_strategy.h"
#include "util/status.h"

namespace wavebatch {

/// Orders in which a progressive evaluation may walk the master list.
/// kBiggestB is the paper's algorithm; the others are ablation baselines
/// (all of them share I/O — the comparison isolates the *ordering*).
enum class ProgressionOrder {
  /// Decreasing importance ι_p — the Batch-Biggest-B order, optimal for
  /// worst-case (Thm 1) and expected (Thm 2) penalty at every step.
  kBiggestB,
  /// Round-robin over queries, each advancing through its own coefficients
  /// in decreasing |q̂_i| — the natural "s independent single-query
  /// ProPolyne instances" order, with fetches deduplicated.
  kRoundRobin,
  /// Uniformly random order (seeded).
  kRandom,
  /// Ascending key order — what a pure sequential scan would do.
  kKeyOrder,
};

/// The immutable, shareable half of a progressive batch evaluation: master
/// list, per-entry importances ι_p(ξ), and the consumption permutation of
/// every deterministic ProgressionOrder, computed once. Plans carry no
/// cursor and touch no store, so one plan can back any number of
/// EvalSessions — sequentially (a dashboard re-running the same batch) or
/// concurrently (sessions on different threads over one shared store) —
/// and can be cached across identical batches (PlanCache).
///
/// Plans own their inputs via shared_ptr: a session holding the plan keeps
/// the master list and penalty alive, so nothing a session reads has to
/// outlive the scope that created it.
///
/// Construction runs on the calling thread: master-list merge, importances
/// and the deterministic permutations, each computed once per plan.
class EvalPlan {
 public:
  /// Rewrites `batch` under `strategy` (MasterList::Build) and plans it.
  /// `penalty` may be null for exact-only plans (kKeyOrder / kRoundRobin
  /// progressions and RunToExact work; importance-based order and bounds
  /// do not).
  static Result<std::shared_ptr<const EvalPlan>> Build(
      const QueryBatch& batch, const LinearStrategy& strategy,
      std::shared_ptr<const PenaltyFunction> penalty);

  /// Plans an already-merged master list.
  static std::shared_ptr<const EvalPlan> FromMasterList(
      std::shared_ptr<const MasterList> list,
      std::shared_ptr<const PenaltyFunction> penalty);

  const MasterList& list() const { return *list_; }
  std::shared_ptr<const MasterList> shared_list() const { return list_; }
  /// Null for exact-only plans.
  const PenaltyFunction* penalty() const { return penalty_.get(); }

  size_t num_queries() const { return list_->num_queries(); }
  /// Steps to exactness (= master list size).
  size_t size() const { return list_->size(); }

  bool HasImportance() const { return penalty_ != nullptr; }
  /// ι_p of master-list entry `i`. Requires HasImportance().
  double importance(size_t i) const { return importance_[i]; }
  /// Σ_ξ ι_p(ξ) over the whole master list — a fresh session's remaining
  /// importance. Requires HasImportance().
  double total_importance() const { return total_importance_; }

  /// The fused gather-apply kernel over this plan's CSR image. The returned
  /// pointers stay valid as long as this plan is alive (sessions hold the
  /// plan via shared_ptr).
  ApplyKernel kernel() const {
    return ApplyKernel::For(
        *list_, importance_.empty() ? nullptr : importance_.data());
  }

  /// The order in which a session under `order` consumes master-list entry
  /// indices. Precomputed for kBiggestB (requires HasImportance()),
  /// kRoundRobin, and kKeyOrder; kRandom depends on a seed — use
  /// RandomPermutation.
  std::span<const size_t> Permutation(ProgressionOrder order) const;

  /// The kRandom consumption order for `seed` (identity permutation through
  /// a seeded Fisher–Yates, matching the reference evaluator step for step).
  /// The last (seed, permutation) pair is memoized behind a mutex — the
  /// plan stays logically immutable, and the common pattern of many
  /// sessions sharing one seed costs one shuffle instead of one per
  /// session. Thread-safe.
  std::vector<size_t> RandomPermutation(uint64_t seed) const;

 private:
  EvalPlan(std::shared_ptr<const MasterList> list,
           std::shared_ptr<const PenaltyFunction> penalty);

  std::shared_ptr<const MasterList> list_;
  std::shared_ptr<const PenaltyFunction> penalty_;

  std::vector<double> importance_;  // empty when penalty_ is null
  double total_importance_ = 0.0;

  // Entry indices in consumption order. biggest_b_ is the descending
  // (importance, index) order a max-heap pops; round_robin_ is the
  // per-query |coefficient|-descending round-robin with duplicate entries
  // collapsed onto their first appearance; key_order_ is the identity
  // (master lists are ascending by key).
  std::vector<size_t> biggest_b_;
  std::vector<size_t> round_robin_;
  std::vector<size_t> key_order_;

  // RandomPermutation memo (logical const: a cache of a pure function of
  // the immutable plan).
  mutable std::mutex random_mu_;
  mutable bool random_cached_ = false;
  mutable uint64_t random_seed_ = 0;
  mutable std::vector<size_t> random_perm_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_EVAL_PLAN_H_
