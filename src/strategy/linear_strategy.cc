#include "strategy/linear_strategy.h"

#include <vector>

#include "util/check.h"

namespace wavebatch {

Result<std::vector<SparseVec>> LinearStrategy::TransformBatch(
    const QueryBatch& batch) const {
  std::vector<SparseVec> out;
  out.reserve(batch.size());
  for (const RangeSumQuery& query : batch.queries()) {
    Result<SparseVec> coefficients = TransformQuery(query);
    if (!coefficients.ok()) return coefficients.status();
    out.push_back(std::move(coefficients).value());
  }
  return out;
}

Result<double> LinearStrategy::AnswerQuery(const RangeSumQuery& query,
                                           const CoefficientStore& store,
                                           IoStats* io) const {
  Result<SparseVec> coeffs = TransformQuery(query);
  if (!coeffs.ok()) return coeffs.status();
  std::vector<uint64_t> keys;
  keys.reserve(coeffs->size());
  for (const SparseEntry& e : *coeffs) keys.push_back(e.key);
  std::vector<double> values(keys.size());
  Status status = store.FetchBatch(keys, values, io);
  if (!status.ok()) return status;
  double acc = 0.0;
  for (size_t i = 0; i < coeffs->size(); ++i) {
    acc += (*coeffs)[i].value * values[i];
  }
  return acc;
}

Status LinearStrategy::InsertTuple(CoefficientStore& store, const Tuple& tuple,
                                   double count) const {
  Result<SparseVec> delta = TransformUpdate(tuple, count);
  if (!delta.ok()) return delta.status();
  for (const SparseEntry& e : *delta) store.Add(e.key, e.value);
  return Status::OK();
}

std::unique_ptr<CoefficientStore> LinearStrategy::BuildStoreFromRelation(
    const Relation& relation) const {
  WB_CHECK(relation.schema() == schema_);
  std::unique_ptr<CoefficientStore> store = MakeEmptyStore();
  for (const Tuple& t : relation.tuples()) {
    Status s = InsertTuple(*store, t, 1.0);
    WB_CHECK(s.ok()) << s;
  }
  return store;
}

}  // namespace wavebatch
