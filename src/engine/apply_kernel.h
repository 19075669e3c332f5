#ifndef WAVEBATCH_ENGINE_APPLY_KERNEL_H_
#define WAVEBATCH_ENGINE_APPLY_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/master_list.h"
#include "util/prefetch.h"

namespace wavebatch {

/// The engine's fused gather-apply kernel over the master list's flat CSR
/// image (MasterList::keys/uses_offsets/uses_query/uses_coeff). A kernel is
/// a bundle of raw pointers into plan-owned arrays — cheap to copy, valid
/// exactly as long as the EvalPlan that handed it out (sessions hold the
/// plan via shared_ptr, so their kernel never dangles).
///
/// Everything here preserves the reference evaluators' floating-point
/// behavior bit for bit: uses are applied in CSR row order (= ascending
/// query index, the order the tests/reference/ loops use), zero data skips
/// the whole entry (exactly the reference `data == 0` early-out), and
/// importance is consumed with the same clamped subtraction in the same
/// consumption order. The only difference is mechanical: software prefetch
/// of the next entry's use range while the current one is applied.
struct ApplyKernel {
  const uint64_t* keys = nullptr;
  const uint64_t* offsets = nullptr;  // size() + 1 prefix offsets
  const uint32_t* query = nullptr;
  const double* coeff = nullptr;
  /// ι_p per entry; null for penalty-free (exact-only) plans.
  const double* importance = nullptr;

  static ApplyKernel For(const MasterList& list, const double* importance) {
    ApplyKernel k;
    k.keys = list.keys().data();
    k.offsets = list.uses_offsets().data();
    k.query = list.uses_query().data();
    k.coeff = list.uses_coeff().data();
    k.importance = importance;
    return k;
  }

  /// estimates[q] += c_q * data over entry's use row — the unit estimate
  /// update of Batch-Biggest-B step 5.
  void ApplyOne(size_t entry, double data, double* estimates) const {
    if (data == 0.0) return;
    const uint64_t lo = offsets[entry];
    const uint64_t hi = offsets[entry + 1];
    for (uint64_t i = lo; i < hi; ++i) {
      estimates[query[i]] += coeff[i] * data;
    }
  }

  /// Moves `entry`'s importance out of the remaining (unfetched) mass.
  /// Clamped at zero: ι sums are accumulated in a different order than they
  /// are subtracted, so the remainder can drift a few ulps below zero at
  /// the end of a run; remaining importance is a mass and never goes
  /// negative. No-op for penalty-free plans.
  void ConsumeImportance(size_t entry, double* remaining) const {
    if (importance == nullptr) return;
    *remaining = std::max(0.0, *remaining - importance[entry]);
  }

  /// Gathers the storage keys of `order[0..n)` into `out` — the fetch list
  /// for one StepBatch/StepBlock. Contiguous 8-byte loads off the CSR keys
  /// array; the gather runs ahead of itself with prefetch because the
  /// permuted access pattern defeats the hardware stride prefetcher.
  void GatherKeys(const size_t* order, size_t n, uint64_t* out) const {
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) WB_PREFETCH(&keys[order[i + kAhead]]);
      out[i] = keys[order[i]];
    }
  }

  /// Gathers precomputed per-entry shard ids of `order[0..n)` into `out` —
  /// the routing hints accompanying one StepBatch/StepBlock fetch list on a
  /// sharded plane. Same permuted-gather shape (and prefetch distance) as
  /// GatherKeys; `shard_of_entry` is session-owned, computed once per plan
  /// since a key's shard never changes under a live router.
  void GatherShards(const size_t* order, size_t n,
                    const uint32_t* shard_of_entry, uint32_t* out) const {
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) WB_PREFETCH(&shard_of_entry[order[i + kAhead]]);
      out[i] = shard_of_entry[order[i]];
    }
  }

  /// The fused batch apply: for i in [0, n), consume entry order[i]'s
  /// importance into *remaining and apply values[i] to the estimates —
  /// the identical per-entry sequence (and therefore identical
  /// floating-point accumulation) as n scalar Step() calls. While entry i
  /// applies, the next entry's offset row and use range are prefetched, so
  /// the span walk streams instead of stalling on each permuted row.
  /// `remaining` may be null only for penalty-free plans.
  void ApplyOrderedSlice(const size_t* order, size_t n, const double* values,
                         double* estimates, double* remaining) const {
    if (n == 0) return;
    // Prime the pipeline: rows for entry 0 are needed immediately.
    WB_PREFETCH(&offsets[order[0]]);
    for (size_t i = 0; i < n; ++i) {
      if (i + 2 < n) WB_PREFETCH(&offsets[order[i + 2]]);
      if (i + 1 < n) {
        const uint64_t next_lo = offsets[order[i + 1]];
        WB_PREFETCH(&coeff[next_lo]);
        WB_PREFETCH(&query[next_lo]);
      }
      const size_t entry = order[i];
      ConsumeImportance(entry, remaining);
      ApplyOne(entry, values[i], estimates);
    }
  }
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_APPLY_KERNEL_H_
