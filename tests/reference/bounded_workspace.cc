#include "reference/bounded_workspace.h"

#include <algorithm>

#include "util/check.h"

namespace wavebatch {

namespace {

/// Batched fetches are issued in chunks so scratch buffers stay modest;
/// the same chunking as EvalSession's default run_chunk.
constexpr size_t kFetchChunk = 4096;

/// The I/O-shared exact pass: every master-list entry fetched once, in key
/// order, advancing each query that uses it. Adds the group's results to
/// `results[members[g]]` and its retrievals to `io`.
void EvaluateShared(const MasterList& list,
                    const std::vector<size_t>& members,
                    const CoefficientStore& store,
                    std::vector<double>& results, IoStats& io) {
  std::vector<double> group(list.num_queries(), 0.0);
  const std::vector<uint64_t>& offsets = list.uses_offsets();
  std::vector<uint64_t> keys;
  std::vector<double> values;
  for (size_t begin = 0; begin < list.size(); begin += kFetchChunk) {
    const size_t end = std::min(list.size(), begin + kFetchChunk);
    keys.assign(list.keys().begin() + begin, list.keys().begin() + end);
    values.assign(keys.size(), 0.0);
    WB_CHECK_OK(store.FetchBatch(keys, values, &io));
    for (size_t i = begin; i < end; ++i) {
      const double data = values[i - begin];
      if (data == 0.0) continue;
      for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
        group[list.uses_query()[r]] += list.uses_coeff()[r] * data;
      }
    }
  }
  for (size_t g = 0; g < members.size(); ++g) results[members[g]] = group[g];
}

}  // namespace

BoundedWorkspaceResult EvaluateWithBoundedWorkspace(
    const QueryBatch& batch, const LinearStrategy& strategy,
    const CoefficientStore& store, uint64_t max_workspace_coefficients) {
  WB_CHECK_GT(max_workspace_coefficients, 0u);
  BoundedWorkspaceResult out;
  out.results.resize(batch.size(), 0.0);
  IoStats io;

  std::vector<SparseVec> group;           // materialized coefficient lists
  std::vector<size_t> group_members;      // their batch indices
  uint64_t group_coefficients = 0;

  auto flush = [&] {
    if (group.empty()) return;
    EvaluateShared(MasterList::FromQueryVectors(group), group_members, store,
                   out.results, io);
    out.peak_workspace = std::max(out.peak_workspace, group_coefficients);
    ++out.num_groups;
    group.clear();
    group_members.clear();
    group_coefficients = 0;
  };

  for (size_t qi = 0; qi < batch.size(); ++qi) {
    Result<SparseVec> coeffs = strategy.TransformQuery(batch.query(qi));
    WB_CHECK(coeffs.ok()) << coeffs.status();
    const uint64_t nnz = coeffs->size();
    if (!group.empty() &&
        group_coefficients + nnz > max_workspace_coefficients) {
      flush();
    }
    group_coefficients += nnz;
    group.push_back(std::move(coeffs).value());
    group_members.push_back(qi);
  }
  flush();
  out.retrievals = io.retrievals;
  return out;
}

}  // namespace wavebatch
