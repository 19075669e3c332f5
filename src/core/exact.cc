#include "core/exact.h"

#include <algorithm>
#include <vector>

namespace wavebatch {

namespace {
/// Batched fetches are issued in chunks so scratch buffers stay modest even
/// for million-entry master lists; within a chunk the store may coalesce,
/// group, or parallelize however it likes.
constexpr size_t kFetchChunk = 4096;
}  // namespace

ExactBatchResult EvaluateNaive(
    const std::vector<SparseVec>& query_coefficients,
    const CoefficientStore& store) {
  ExactBatchResult out;
  out.results.resize(query_coefficients.size(), 0.0);
  IoStats io;
  std::vector<uint64_t> keys;
  std::vector<double> values;
  for (size_t qi = 0; qi < query_coefficients.size(); ++qi) {
    const SparseVec& coeffs = query_coefficients[qi];
    double acc = 0.0;
    for (size_t begin = 0; begin < coeffs.size(); begin += kFetchChunk) {
      const size_t end = std::min(coeffs.size(), begin + kFetchChunk);
      keys.clear();
      for (size_t i = begin; i < end; ++i) keys.push_back(coeffs[i].key);
      values.assign(keys.size(), 0.0);
      // Legacy evaluators are the crash-on-error golden reference; fault
      // tolerance lives in the engine layer.
      WB_CHECK_OK(store.FetchBatch(keys, values, &io));
      for (size_t i = begin; i < end; ++i) {
        acc += coeffs[i].value * values[i - begin];
      }
    }
    out.results[qi] = acc;
  }
  out.retrievals = io.retrievals;
  return out;
}

ExactBatchResult EvaluateShared(const MasterList& list,
                                const CoefficientStore& store) {
  ExactBatchResult out;
  out.results.resize(list.num_queries(), 0.0);
  IoStats io;
  const std::vector<uint64_t>& offsets = list.uses_offsets();
  std::vector<uint64_t> keys;
  std::vector<double> values;
  for (size_t begin = 0; begin < list.size(); begin += kFetchChunk) {
    const size_t end = std::min(list.size(), begin + kFetchChunk);
    keys.assign(list.keys().begin() + begin, list.keys().begin() + end);
    values.assign(keys.size(), 0.0);
    WB_CHECK_OK(store.FetchBatch(keys, values, &io));
    // Entry order, like the scalar loop: identical accumulation sequence.
    for (size_t i = begin; i < end; ++i) {
      const double data = values[i - begin];
      if (data == 0.0) continue;
      for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
        out.results[list.uses_query()[r]] += list.uses_coeff()[r] * data;
      }
    }
  }
  out.retrievals = io.retrievals;
  return out;
}

}  // namespace wavebatch
