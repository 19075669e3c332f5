#include "reference/block_progressive.h"

#include <unordered_map>

#include "util/check.h"

namespace wavebatch {

BlockProgressiveEvaluator::BlockProgressiveEvaluator(
    const MasterList* list, const PenaltyFunction* penalty,
    const CoefficientStore* store,
    const std::function<uint64_t(uint64_t)>& block_of)
    : list_(list), store_(store) {
  WB_CHECK(list_ != nullptr);
  WB_CHECK(penalty != nullptr);
  WB_CHECK(store_ != nullptr);
  estimates_.assign(list_->num_queries(), 0.0);

  std::unordered_map<uint64_t, size_t> block_index;
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  const std::vector<uint32_t>& uses_query = list_->uses_query();
  const std::vector<double>& uses_coeff = list_->uses_coeff();
  std::vector<double> column(list_->num_queries(), 0.0);
  for (size_t i = 0; i < list_->size(); ++i) {
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      column[uses_query[r]] = uses_coeff[r];
    }
    const double importance = penalty->Apply(column);
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      column[uses_query[r]] = 0.0;
    }

    const uint64_t block_id = block_of(list_->keys()[i]);
    auto [it, inserted] = block_index.try_emplace(block_id, blocks_.size());
    if (inserted) blocks_.push_back({block_id, 0.0, {}});
    Block& block = blocks_[it->second];
    block.importance += importance;
    block.entries.push_back(i);
  }
  for (size_t b = 0; b < blocks_.size(); ++b) {
    heap_.emplace(blocks_[b].importance, b);
  }
}

size_t BlockProgressiveEvaluator::StepBlock() {
  WB_CHECK(!Done()) << "StepBlock() after completion";
  const size_t b = heap_.top().second;
  heap_.pop();
  ++blocks_fetched_;
  const Block& block = blocks_[b];
  // One batched fetch per block — on a BlockStore backend this touches the
  // underlying block exactly once, matching the simulated cost model.
  std::vector<uint64_t> keys;
  keys.reserve(block.entries.size());
  for (size_t entry_idx : block.entries) {
    keys.push_back(list_->keys()[entry_idx]);
  }
  std::vector<double> values(keys.size());
  // Crash-on-error reference (fault tolerance is the engine's job).
  WB_CHECK_OK(store_->FetchBatch(keys, values, &io_));
  coefficients_fetched_ += block.entries.size();
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  for (size_t i = 0; i < block.entries.size(); ++i) {
    if (values[i] == 0.0) continue;
    const size_t entry_idx = block.entries[i];
    for (uint64_t r = offsets[entry_idx]; r < offsets[entry_idx + 1]; ++r) {
      estimates_[list_->uses_query()[r]] += list_->uses_coeff()[r] * values[i];
    }
  }
  return block.entries.size();
}

double BlockProgressiveEvaluator::NextBlockImportance() const {
  if (Done()) return 0.0;
  return heap_.top().first;
}

}  // namespace wavebatch
