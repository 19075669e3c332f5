#ifndef WAVEBATCH_TESTS_REFERENCE_BLOCK_PROGRESSIVE_H_
#define WAVEBATCH_TESTS_REFERENCE_BLOCK_PROGRESSIVE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/master_list.h"
#include "penalty/penalty.h"
#include "storage/coefficient_store.h"

namespace wavebatch {

/// Block-granularity Batch-Biggest-B — the generalization the paper's
/// conclusion calls for ("generalize importance functions to disk blocks
/// rather than individual tuples"). Master-list entries are grouped by a
/// caller-supplied key→block mapping; a block's importance is the *sum* of
/// its member importances (additive in Theorem 2's expected-penalty sum,
/// so greedy-by-total-importance minimizes the expected penalty among all
/// progressions that fetch whole blocks); each step fetches one block —
/// every needed coefficient on it — and advances all affected estimates.
///
/// Test-only reference implementation (a per-run heap over blocks) that
/// engine_test holds block-granularity EvalSessions bit-identical against.
class BlockProgressiveEvaluator {
 public:
  /// `list`, `penalty`, `store` must outlive the evaluator. `block_of`
  /// maps coefficient keys to block ids (e.g. rank/block_size for a packed
  /// layout, or key/block_size for an array layout).
  BlockProgressiveEvaluator(const MasterList* list,
                            const PenaltyFunction* penalty,
                            const CoefficientStore* store,
                            const std::function<uint64_t(uint64_t)>& block_of);

  size_t TotalBlocks() const { return blocks_.size(); }
  uint64_t BlocksFetched() const { return blocks_fetched_; }
  uint64_t CoefficientsFetched() const { return coefficients_fetched_; }
  bool Done() const { return blocks_fetched_ == blocks_.size(); }

  /// Fetches the most important unfetched block; returns the number of
  /// coefficients it contributed. Requires !Done().
  size_t StepBlock();

  const std::vector<double>& Estimates() const { return estimates_; }

  /// Total importance of the next block to be fetched (0 when done).
  double NextBlockImportance() const;

  /// I/O charged by this evaluator's own fetches (includes block_reads /
  /// block_hits when the store is a BlockStore).
  const IoStats& io() const { return io_; }

 private:
  struct Block {
    uint64_t id;
    double importance = 0.0;
    std::vector<size_t> entries;  // master-list entry indices
  };

  const MasterList* list_;
  const CoefficientStore* store_;
  IoStats io_;
  std::vector<Block> blocks_;
  std::vector<double> estimates_;
  uint64_t blocks_fetched_ = 0;
  uint64_t coefficients_fetched_ = 0;
  // Max-heap of (importance, block index).
  std::priority_queue<std::pair<double, size_t>> heap_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_TESTS_REFERENCE_BLOCK_PROGRESSIVE_H_
