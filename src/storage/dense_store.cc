#include "storage/dense_store.h"

#include <cmath>

#include "util/check.h"

namespace wavebatch {

double DenseStore::Peek(uint64_t key) const {
  WB_CHECK_LT(key, values_.size()) << "key outside dense store capacity";
  return values_[key];
}

void DenseStore::Add(uint64_t key, double delta) {
  WB_CHECK_LT(key, values_.size()) << "key outside dense store capacity";
  values_[key] += delta;
}

namespace {
Status KeyOutOfRange(uint64_t key, size_t capacity) {
  return Status::OutOfRange("key " + std::to_string(key) +
                            " outside dense store capacity " +
                            std::to_string(capacity));
}
}  // namespace

Result<double> DenseStore::DoFetch(uint64_t key, IoStats*) const {
  if (key >= values_.size()) return KeyOutOfRange(key, values_.size());
  return values_[key];
}

Status DenseStore::DoFetchBatch(std::span<const uint64_t> keys,
                                std::span<double> out, IoStats*) const {
  const size_t capacity = values_.size();
  // Permuted gathers (biggest-B order) defeat the hardware stride
  // prefetcher, so the loop prefetches a few keys ahead. The lookahead key
  // is bounds-checked before its address is formed — an out-of-range key
  // must surface as OutOfRange at its own index, never as a wild prefetch.
  constexpr size_t kAhead = 8;
  for (size_t i = 0; i < keys.size(); ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kAhead < keys.size() && keys[i + kAhead] < capacity) {
      __builtin_prefetch(&values_[keys[i + kAhead]]);
    }
#endif
    if (keys[i] >= capacity) {
      return KeyOutOfRange(keys[i], capacity);
    }
    out[i] = values_[keys[i]];
  }
  return Status::OK();
}

uint64_t DenseStore::NumNonZero() const {
  uint64_t n = 0;
  for (double v : values_) {
    if (v != 0.0) ++n;
  }
  return n;
}

void DenseStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  for (uint64_t key = 0; key < values_.size(); ++key) {
    if (values_[key] != 0.0) fn(key, values_[key]);
  }
}

double DenseStore::SumAbs() const {
  double acc = 0.0;
  for (double v : values_) acc += std::abs(v);
  return acc;
}

}  // namespace wavebatch
