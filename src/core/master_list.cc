#include "core/master_list.h"

#include <algorithm>

#include "util/check.h"
#include "util/parallel_sort.h"
#include "util/thread_pool.h"

namespace wavebatch {

namespace {

/// Below this many merged coefficients the queue + wake overhead of the
/// shared pool exceeds the merge itself (bounded-workspace groups, unit
/// tests); the build then runs the identical code path serially.
constexpr size_t kMinParallelCoefficients = size_t{1} << 14;

/// Chunk size for the linear passes (projection, dedup/fold). Boundaries
/// depend only on the input size, never on thread count.
constexpr size_t kFoldGrain = size_t{1} << 14;

/// One merged (key, query, coefficient) row. The merge sorts rows by
/// (key, query); both components of that order are realized structurally —
/// keys by the merge comparator, query tie-break by merge stability over
/// per-query runs — so the result is unique and thread-count-independent.
struct UseRow {
  uint64_t key;
  uint32_t query;
  double value;
};

/// Runs fn over [0, n): chunked across `pool` when non-null, inline
/// otherwise. Either way every index is visited exactly once and each
/// output slot is written by exactly one chunk.
void ForRange(ThreadPool* pool, size_t n, size_t grain,
              const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool != nullptr) {
    pool->ParallelFor(n, grain, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace

Result<MasterList> MasterList::Build(const QueryBatch& batch,
                                     const LinearStrategy& strategy,
                                     BuildParallelism parallelism) {
  // The per-query sparse transforms are independent and read-only on the
  // strategy, so they fan out across the shared pool; each slot is written
  // by exactly one chunk, keeping results identical to the serial loop.
  std::vector<Result<SparseVec>> transformed(batch.size(),
                                             Result<SparseVec>(SparseVec{}));
  ThreadPool* pool = parallelism == BuildParallelism::kParallel
                         ? &ThreadPool::Shared()
                         : nullptr;
  ForRange(pool, batch.size(), /*grain=*/8, [&](size_t begin, size_t end) {
    for (size_t qi = begin; qi < end; ++qi) {
      transformed[qi] = strategy.TransformQuery(batch.query(qi));
    }
  });
  std::vector<SparseVec> query_coefficients;
  query_coefficients.reserve(batch.size());
  for (Result<SparseVec>& r : transformed) {
    if (!r.ok()) return r.status();
    query_coefficients.push_back(std::move(r).value());
  }
  return FromQueryVectors(query_coefficients, parallelism);
}

MasterList MasterList::FromQueryVectors(
    const std::vector<SparseVec>& query_coefficients,
    BuildParallelism parallelism) {
  MasterList list;
  list.num_queries_ = query_coefficients.size();
  const size_t num_queries = query_coefficients.size();

  // Per-query runs laid out back to back: run q is already sorted by key
  // (SparseVec invariant), so the merge below never needs a full sort.
  std::vector<size_t> run_bounds(num_queries + 1, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    run_bounds[q + 1] = run_bounds[q] + query_coefficients[q].size();
  }
  const size_t total = run_bounds[num_queries];
  list.total_coefficients_ = total;
  list.per_query_coefficients_.resize(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    list.per_query_coefficients_[q] = query_coefficients[q].size();
  }

  ThreadPool* pool = (parallelism == BuildParallelism::kParallel &&
                      total >= kMinParallelCoefficients)
                         ? &ThreadPool::Shared()
                         : nullptr;

  std::vector<UseRow> rows(total);
  ForRange(pool, num_queries, /*grain=*/4, [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      const SparseVec& v = query_coefficients[q];
      UseRow* out = rows.data() + run_bounds[q];
      for (size_t j = 0; j < v.size(); ++j) {
        out[j] = {v[j].key, static_cast<uint32_t>(q), v[j].value};
      }
    }
  });

  // Stable pairwise merge of the per-query runs by key: equal keys keep
  // run (= query) order, so rows end up ascending by (key, query) — the
  // unique order a serial sort by that pair would produce.
  MergeSortedRuns(rows.begin(), run_bounds,
                  [](const UseRow& a, const UseRow& b) { return a.key < b.key; },
                  pool);

  // Dedup/fold into the CSR image. The uses arrays are the sorted rows
  // projected 1:1; entry boundaries are the rows where the key changes
  // ("heads"). Chunked: count heads per fixed chunk, exclusive-scan to get
  // each chunk's first entry index, then fill — every output slot has
  // exactly one writer.
  list.uses_query_.resize(total);
  list.uses_coeff_.resize(total);
  const size_t num_chunks = (total + kFoldGrain - 1) / kFoldGrain;
  std::vector<size_t> chunk_heads(num_chunks, 0);
  ForRange(pool, num_chunks, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t lo = c * kFoldGrain;
      const size_t hi = std::min(total, lo + kFoldGrain);
      size_t heads = 0;
      for (size_t i = lo; i < hi; ++i) {
        list.uses_query_[i] = rows[i].query;
        list.uses_coeff_[i] = rows[i].value;
        if (i == 0 || rows[i].key != rows[i - 1].key) ++heads;
      }
      chunk_heads[c] = heads;
    }
  });
  size_t num_entries = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t heads = chunk_heads[c];
    chunk_heads[c] = num_entries;  // becomes the chunk's first entry index
    num_entries += heads;
  }
  list.keys_.resize(num_entries);
  list.uses_offsets_.resize(num_entries + 1);
  ForRange(pool, num_chunks, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t lo = c * kFoldGrain;
      const size_t hi = std::min(total, lo + kFoldGrain);
      size_t cursor = chunk_heads[c];
      for (size_t i = lo; i < hi; ++i) {
        if (i == 0 || rows[i].key != rows[i - 1].key) {
          list.keys_[cursor] = rows[i].key;
          list.uses_offsets_[cursor] = i;
          ++cursor;
        }
      }
    }
  });
  list.uses_offsets_[num_entries] = total;

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
