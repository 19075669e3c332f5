#ifndef WAVEBATCH_TESTS_REFERENCE_PROGRESSIVE_H_
#define WAVEBATCH_TESTS_REFERENCE_PROGRESSIVE_H_

#include <queue>
#include <vector>

#include "core/master_list.h"
#include "engine/eval_plan.h"
#include "penalty/penalty.h"
#include "storage/coefficient_store.h"

namespace wavebatch {

/// Batch-Biggest-B (Figure 1 of the paper): progressive evaluation of a
/// batch of vector queries. Construction performs steps 1–4 (zero
/// estimates, master list given, importance computation, heap build);
/// every Step() performs one iteration of step 5: extract the most
/// important unretrieved coefficient, fetch it, and advance the estimate
/// of every query that uses it. After the final step the estimates hold
/// the exact results.
///
/// Test-only reference implementation: a direct transcription of the
/// paper's heap-driven loop that engine_test and sharded_store_test hold
/// EvalPlan + EvalSession bit-identical against. Library code evaluates
/// through the engine.
class ProgressiveEvaluator {
 public:
  /// `list`, `penalty`, and `store` must outlive the evaluator. `seed`
  /// only affects kRandom.
  ProgressiveEvaluator(const MasterList* list, const PenaltyFunction* penalty,
                       const CoefficientStore* store,
                       ProgressionOrder order = ProgressionOrder::kBiggestB,
                       uint64_t seed = 0);

  /// Total steps to exactness (= master list size).
  size_t TotalSteps() const { return list_->size(); }
  uint64_t StepsTaken() const { return steps_taken_; }
  bool Done() const { return steps_taken_ == TotalSteps(); }

  /// One retrieval; requires !Done(). Returns the master-list entry index
  /// that was consumed.
  size_t Step();

  /// Up to `n` further retrievals issued as ONE CoefficientStore::FetchBatch:
  /// pops the next `n` entries in progression order, fetches their keys in
  /// a single batched call, then applies the estimate updates in pop order.
  /// Estimates, trackers, and retrieval counts are identical to `n` scalar
  /// Step() calls — the batch changes I/O shape, not results. Returns the
  /// number of steps actually taken.
  size_t StepBatch(size_t n);

  void RunToCompletion() {
    // Chunked so the scratch key/value buffers stay cache-sized even for
    // huge master lists.
    while (!Done()) StepBatch(4096);
  }

  /// Current progressive estimates (exact once Done()).
  const std::vector<double>& Estimates() const { return estimates_; }

  /// ι_p of the coefficient the next Step() will retrieve (0 when done).
  /// Under kBiggestB this is the maximum importance of any unused
  /// coefficient — the ξ′ of Theorem 1.
  double NextImportance() const;

  /// Theorem 1's guaranteed worst-case penalty bound for the current
  /// B-term approximation: K^α · ι_p(ξ′), where `k_sum_abs` is
  /// K = Σ_ξ |Δ̂[ξ]| (CoefficientStore::SumAbs of the data view) and α the
  /// penalty's homogeneity degree. Only sharp under kBiggestB.
  double WorstCaseBound(double k_sum_abs) const;

  /// Theorem 2's expected penalty over data vectors uniform on the unit
  /// sphere: Σ_{unused ξ} ι_p(ξ) / N^d, with `domain_cells` = N^d.
  /// (The paper prints (N^d − 1)⁻¹ — the sphere-dimension off-by-one; the
  /// uniform second moment on the unit sphere in R^n is 1/n, so we divide
  /// by the cell count.) Meaningful for quadratic penalties.
  double ExpectedPenalty(uint64_t domain_cells) const;

  /// I/O charged by this evaluator's own fetches (the store itself keeps
  /// no counters).
  const IoStats& io() const { return io_; }

 private:
  void BuildOrder(ProgressionOrder order, uint64_t seed);
  size_t NextEntry() const;  // entry the next Step() will take
  size_t PopNext();          // consume the next entry (bookkeeping only)
  // estimates[q] += c_q * data over entry_idx's use row; zero data skips.
  void ApplyEntry(size_t entry_idx, double data);

  const MasterList* list_;
  const PenaltyFunction* penalty_;
  const CoefficientStore* store_;
  ProgressionOrder order_;
  IoStats io_;

  std::vector<double> importance_;  // per master-list entry
  std::vector<double> estimates_;
  std::vector<bool> fetched_;
  uint64_t steps_taken_ = 0;
  double remaining_importance_ = 0.0;

  // kBiggestB: max-heap of (importance, entry index).
  using HeapItem = std::pair<double, size_t>;
  std::priority_queue<HeapItem> heap_;
  // Other orders: a precomputed sequence and cursor. The sequence may
  // contain duplicates (round-robin); fetched_ filters them.
  std::vector<size_t> sequence_;
  mutable size_t cursor_ = 0;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_TESTS_REFERENCE_PROGRESSIVE_H_
