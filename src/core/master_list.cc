#include "core/master_list.h"

#include <algorithm>

namespace wavebatch {

namespace {

/// One (key, query, coefficient) use. The merge orders uses by (key,
/// query): a SparseVec holds each key at most once, so no two uses share
/// that pair and the order is unique.
struct UseRow {
  uint64_t key;
  uint32_t query;
  double value;
};

}  // namespace

Result<MasterList> MasterList::Build(const QueryBatch& batch,
                                     const LinearStrategy& strategy,
                                     BuildParallelism) {
  Result<std::vector<SparseVec>> query_coefficients =
      strategy.TransformBatch(batch);
  if (!query_coefficients.ok()) return query_coefficients.status();
  return FromQueryVectors(*query_coefficients);
}

MasterList MasterList::FromQueryVectors(
    const std::vector<SparseVec>& query_coefficients) {
  MasterList list;
  const size_t num_queries = query_coefficients.size();
  list.num_queries_ = num_queries;
  list.per_query_coefficients_.resize(num_queries);
  // Per-query runs laid out back to back: run q is [run_bounds[q],
  // run_bounds[q + 1]) and already sorted by key (SparseVec invariant).
  std::vector<size_t> run_bounds(num_queries + 1, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    list.per_query_coefficients_[q] = query_coefficients[q].size();
    run_bounds[q + 1] = run_bounds[q] + query_coefficients[q].size();
  }
  const size_t total = run_bounds[num_queries];
  list.total_coefficients_ = total;

  std::vector<UseRow> rows;
  rows.reserve(total);
  for (size_t q = 0; q < num_queries; ++q) {
    for (const SparseEntry& e : query_coefficients[q].entries()) {
      rows.push_back({e.key, static_cast<uint32_t>(q), e.value});
    }
  }
  // Bottom-up pairwise merge of the runs by key. std::inplace_merge is
  // stable, so equal keys keep run (= query) order and the rows end up
  // ascending by (key, query). Merging the pre-sorted runs costs
  // O(total · log num_queries) and is several times faster than a full
  // sort of the rows.
  const auto by_key = [](const UseRow& a, const UseRow& b) {
    return a.key < b.key;
  };
  for (size_t width = 1; width < num_queries; width *= 2) {
    for (size_t lo = 0; lo + width < num_queries; lo += 2 * width) {
      const size_t hi = std::min(num_queries, lo + 2 * width);
      std::inplace_merge(rows.begin() + run_bounds[lo],
                         rows.begin() + run_bounds[lo + width],
                         rows.begin() + run_bounds[hi], by_key);
    }
  }

  // Fold into the CSR image: the uses arrays are the sorted rows projected
  // 1:1, and a new entry starts wherever the key changes. Entries are
  // counted first so every array is allocated at its exact size — cached
  // plans hold these arrays for their whole life.
  size_t num_entries = 0;
  for (size_t i = 0; i < total; ++i) {
    if (i == 0 || rows[i].key != rows[i - 1].key) ++num_entries;
  }
  list.keys_.reserve(num_entries);
  list.uses_offsets_.reserve(num_entries + 1);
  list.uses_query_.reserve(total);
  list.uses_coeff_.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    if (i == 0 || rows[i].key != rows[i - 1].key) {
      list.keys_.push_back(rows[i].key);
      list.uses_offsets_.push_back(i);
    }
    list.uses_query_.push_back(rows[i].query);
    list.uses_coeff_.push_back(rows[i].value);
  }
  list.uses_offsets_.push_back(total);
  return list;
}

size_t MasterList::MaxSharing() const {
  size_t m = 0;
  for (size_t e = 0; e + 1 < uses_offsets_.size(); ++e) {
    m = std::max<size_t>(m, uses_offsets_[e + 1] - uses_offsets_[e]);
  }
  return m;
}

}  // namespace wavebatch
