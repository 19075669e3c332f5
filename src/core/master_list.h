#ifndef WAVEBATCH_CORE_MASTER_LIST_H_
#define WAVEBATCH_CORE_MASTER_LIST_H_

#include <cstdint>
#include <vector>

#include "query/batch.h"
#include "strategy/linear_strategy.h"
#include "util/status.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {

/// Ignored: plan construction has one serial path. The single value keeps
/// the signature of MasterList::Build that the serving benchmark
/// (perfbench/) calls with kSerial; remove it with the next change to that
/// benchmark.
enum class BuildParallelism {
  kSerial,
};

/// The merged master list of Batch-Biggest-B steps 2–3: per-query sparse
/// coefficient lists merged by key. Its size is the exact shared I/O cost
/// of the batch; the sum of per-query sizes is the naive (unshared) cost.
///
/// The list is held as one flat CSR image: contiguous `keys()`,
/// `uses_offsets()` (size+1 prefix offsets), `uses_query()` and
/// `uses_coeff()` arrays. Entry i is one storage coefficient needed by the
/// batch — the unit of I/O sharing (Section 2.2): fetching keys()[i] once
/// advances every query in its use row [uses_offsets()[i],
/// uses_offsets()[i+1]) of the two `uses_*` arrays. The engine's apply
/// kernel walks it branch-free with no per-entry pointer chase (see
/// engine/apply_kernel.h); the core/ reference evaluators walk the same
/// rows in the same order.
class MasterList {
 public:
  /// An empty master list (no queries, no entries); assign over it.
  MasterList() = default;

  /// Rewrites every query in `batch` under `strategy` and merges. Fails
  /// with the status of the first query that cannot be rewritten (e.g.
  /// unsupported monomial). The BuildParallelism argument is ignored.
  static Result<MasterList> Build(
      const QueryBatch& batch, const LinearStrategy& strategy,
      BuildParallelism = BuildParallelism::kSerial);

  /// Merges pre-transformed per-query sparse vectors (index = query index).
  static MasterList FromQueryVectors(
      const std::vector<SparseVec>& query_coefficients);

  size_t num_queries() const { return num_queries_; }
  /// Distinct coefficients needed by the batch = exact shared I/O cost.
  size_t size() const { return keys_.size(); }

  /// CSR image, ascending by key. keys()[i] is entry i's storage key; its
  /// uses are rows [uses_offsets()[i], uses_offsets()[i+1]) of
  /// uses_query()/uses_coeff(), ascending by query index.
  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<uint64_t>& uses_offsets() const { return uses_offsets_; }
  const std::vector<uint32_t>& uses_query() const { return uses_query_; }
  const std::vector<double>& uses_coeff() const { return uses_coeff_; }

  /// Σ per-query nonzero counts = exact naive (per-query) I/O cost.
  uint64_t TotalQueryCoefficients() const { return total_coefficients_; }

  /// Largest number of queries sharing one coefficient.
  size_t MaxSharing() const;

  /// Per-query nonzero counts (the naive cost split by query).
  const std::vector<uint64_t>& PerQueryCoefficients() const {
    return per_query_coefficients_;
  }

 private:
  size_t num_queries_ = 0;
  uint64_t total_coefficients_ = 0;
  std::vector<uint64_t> per_query_coefficients_;

  // CSR image, ascending by key.
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> uses_offsets_;  // size() + 1 when non-empty
  std::vector<uint32_t> uses_query_;
  std::vector<double> uses_coeff_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_CORE_MASTER_LIST_H_
