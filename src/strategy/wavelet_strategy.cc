#include "strategy/wavelet_strategy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "storage/dense_store.h"
#include "storage/memory_store.h"
#include "util/bits.h"
#include "util/check.h"
#include "wavelet/dwt_nd.h"
#include "wavelet/impulse.h"
#include "wavelet/lazy_query_transform.h"
#include "wavelet/query_transform.h"

namespace wavebatch {

namespace {

using Factor = std::vector<SparseEntry>;

// Appends to `out` the tensor product of per-dimension sparse 1-D
// coefficient lists, every product scaled by `coeff`. Keys are packed with
// the schema's per-dimension bit widths (dimension 0 most significant) and
// the last dimension advances fastest, so factors sorted by index give
// strictly ascending keys.
void ExpandTensorProduct(const Schema& schema,
                         const std::vector<const Factor*>& factors,
                         double coeff, std::vector<SparseEntry>& out) {
  const size_t d = factors.size();
  // Iterative odometer over factor indices; running partial keys/values per
  // dimension avoid recomputing prefixes.
  std::vector<size_t> idx(d, 0);
  std::vector<uint64_t> key_prefix(d + 1, 0);
  std::vector<double> val_prefix(d + 1, 0.0);
  val_prefix[0] = coeff;
  for (const Factor* f : factors) {
    if (f->empty()) return;  // a zero factor annihilates the product
  }
  size_t dim = 0;
  for (;;) {
    // Fill prefixes from `dim` to the end.
    for (size_t i = dim; i < d; ++i) {
      const SparseEntry& e = (*factors[i])[idx[i]];
      key_prefix[i + 1] = (key_prefix[i] << schema.bits(i)) | e.key;
      val_prefix[i + 1] = val_prefix[i] * e.value;
    }
    out.push_back({key_prefix[d], val_prefix[d]});
    // Advance the odometer (last dimension fastest).
    size_t i = d;
    while (i-- > 0) {
      if (++idx[i] < factors[i]->size()) break;
      idx[i] = 0;
      if (i == 0) return;
    }
    dim = i;
  }
}

// Merges two lists sorted by key, adding the values of equal keys as
// a.value + b.value.
std::vector<SparseEntry> MergeAdd(const std::vector<SparseEntry>& a,
                                  const std::vector<SparseEntry>& b) {
  std::vector<SparseEntry> out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].key < b[j].key)) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j].key < a[i].key) {
      out.push_back(b[j++]);
    } else {
      out.push_back({a[i].key, a[i].value + b[j].value});
      ++i;
      ++j;
    }
  }
  return out;
}

// 1-D query factors keyed by (dimension, lo, hi, degree). A std::map keeps
// each factor at a fixed address while later ones are added.
using FactorMemo = std::map<std::array<uint32_t, 4>, Factor>;

// Rewrites `query`, computing each 1-D factor on its first use and taking
// it from `memo` after that.
Result<SparseVec> TransformWithMemo(const Schema& schema,
                                    const WaveletFilter& filter,
                                    const RangeSumQuery& query,
                                    FactorMemo& memo) {
  if (!(query.range().num_dims() == schema.num_dims())) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  auto factors_of = [&](const Monomial& term) {
    std::vector<const Factor*> factors(schema.num_dims());
    for (size_t i = 0; i < schema.num_dims(); ++i) {
      const Interval& iv = query.range().interval(i);
      auto [it, inserted] = memo.try_emplace(
          {static_cast<uint32_t>(i), iv.lo, iv.hi, term.exponents[i]});
      if (inserted) {
        // O(L² log N) pruned cascade, sorted by index; falls back to the
        // dense transform for degrees beyond the filter's vanishing moments.
        it->second = LazyRangeMonomialDwt1D(schema.dim(i).size, iv.lo, iv.hi,
                                            term.exponents[i], filter);
      }
      factors[i] = &it->second;
    }
    return factors;
  };
  // Each term's products come out strictly ascending by key. Merging the
  // terms in term order and adding equal keys left to right gives the sums,
  // in the same order, that accumulating every product would.
  std::vector<SparseEntry> entries;
  for (const Monomial& term : query.poly().terms()) {
    std::vector<SparseEntry> products;
    ExpandTensorProduct(schema, factors_of(term), term.coeff, products);
    entries = entries.empty() ? std::move(products)
                              : MergeAdd(entries, products);
  }
  // Cross-term cancellation can produce numerically-zero entries; sweep
  // them with the same relative threshold the 1-D transforms use.
  double max_abs = 0.0;
  for (const SparseEntry& e : entries) {
    max_abs = std::max(max_abs, std::abs(e.value));
  }
  const double eps = max_abs * kQueryCoefficientRelEps;
  std::erase_if(entries, [eps](const SparseEntry& e) {
    return !(std::abs(e.value) > eps);
  });
  return SparseVec::FromSorted(std::move(entries));
}

}  // namespace

WaveletStrategy::WaveletStrategy(Schema schema, WaveletKind kind)
    : LinearStrategy(std::move(schema)), filter_(WaveletFilter::Get(kind)) {}

Result<SparseVec> WaveletStrategy::TransformQuery(
    const RangeSumQuery& query) const {
  FactorMemo memo;
  return TransformWithMemo(schema_, filter_, query, memo);
}

Result<std::vector<SparseVec>> WaveletStrategy::TransformBatch(
    const QueryBatch& batch) const {
  FactorMemo memo;
  std::vector<SparseVec> out;
  out.reserve(batch.size());
  for (const RangeSumQuery& query : batch.queries()) {
    Result<SparseVec> coefficients =
        TransformWithMemo(schema_, filter_, query, memo);
    if (!coefficients.ok()) return coefficients.status();
    out.push_back(std::move(coefficients).value());
  }
  return out;
}

std::unique_ptr<CoefficientStore> WaveletStrategy::BuildStore(
    const DenseCube& delta) const {
  WB_CHECK(delta.schema() == schema_);
  DenseCube transformed = delta;
  ForwardDwtNd(transformed, filter_);
  std::vector<double> values(transformed.values().begin(),
                             transformed.values().end());
  return std::make_unique<DenseStore>(std::move(values));
}

Result<SparseVec> WaveletStrategy::TransformUpdate(const Tuple& tuple,
                                                   double count) const {
  if (!schema_.Contains(tuple)) {
    return Status::OutOfRange("tuple outside schema domain");
  }
  std::vector<Factor> factors(schema_.num_dims());
  std::vector<const Factor*> factor_ptrs(schema_.num_dims());
  double bound = 1.0;
  for (size_t i = 0; i < schema_.num_dims(); ++i) {
    const uint64_t n = schema_.dim(i).size;
    factors[i] = SparseImpulseDwt1D(n, tuple[i], 1.0, filter_);
    factor_ptrs[i] = &factors[i];
    // Per-dimension sparsity of the impulse cascade: the level-ℓ scaling
    // support of a point is at most L-1 positions wide, each level emits at
    // most that many details, and one approximation coefficient survives.
    bound *= static_cast<double>(filter_.length()) *
                 static_cast<double>(FloorLog2(n)) +
             1.0;
  }
  std::vector<SparseEntry> entries;
  ExpandTensorProduct(schema_, factor_ptrs, count, entries);
  // The paper's maintenance claim, enforced: an insertion touches
  // O((2δ+2)^d log^d N) stored coefficients.
  WB_CHECK_LE(static_cast<double>(entries.size()), bound)
      << "wavelet update delta exceeds the (2δ+2)^d log^d N bound";
  std::erase_if(entries, [](const SparseEntry& e) {
    return !(std::abs(e.value) > 0.0);
  });
  return SparseVec::FromSorted(std::move(entries));
}

std::string WaveletStrategy::name() const {
  return std::string("wavelet-") + filter_.name();
}

std::unique_ptr<CoefficientStore> WaveletStrategy::MakeEmptyStore() const {
  return std::make_unique<HashStore>();
}

}  // namespace wavebatch
