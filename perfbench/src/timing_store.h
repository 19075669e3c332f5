#ifndef PERFBENCH_TIMING_STORE_H_
#define PERFBENCH_TIMING_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/coefficient_store.h"

namespace perfbench {

/// Per-call record of what the serving stack asked the backend for: one
/// entry per DoFetch/DoFetchBatch that reached the decorated store. Shared by
/// a TimingStore and every pinned view it hands out, so one ledger covers all
/// epochs of a run. Records only while `recording` is set (the timed window
/// of a traced pass).
struct FetchLedger {
  struct Call {
    uint32_t keys;
    uint64_t ns;
  };

  std::atomic<bool> recording{false};
  std::mutex mu;
  std::vector<Call> calls;  // guarded by mu

  void Record(size_t keys, uint64_t ns);
  std::vector<Call> Take();
};

/// Read-only decorator in front of a coefficient backend that times every
/// backend read the serving layer issues (SharedFetchStore delegates its
/// cache misses and group prefetches to these hooks). Everything else
/// forwards, including router() and PinVersion(): pinning re-wraps the
/// inner store's pinned snapshot in a new TimingStore sharing the ledger,
/// as FaultInjectionStore does, so sessions stay both pinned and timed.
/// Without that forwarding a session over a decorated VersionedStore would
/// not pin at all and each fetch would read whatever epoch is current.
class TimingStore : public wavebatch::CoefficientStore {
 public:
  TimingStore(std::shared_ptr<const wavebatch::CoefficientStore> inner,
              std::shared_ptr<FetchLedger> ledger);

  const wavebatch::CoefficientStore& inner() const { return *inner_; }
  const std::shared_ptr<FetchLedger>& ledger() const { return ledger_; }

  double Peek(uint64_t key) const override { return inner_->Peek(key); }
  /// Read-only view: aborts. Write through the decorated store.
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override { return inner_->NumNonZero(); }
  double SumAbs() const override { return inner_->SumAbs(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override {
    inner_->ForEachNonZero(fn);
  }
  std::string name() const override { return "timed(" + inner_->name() + ")"; }
  const wavebatch::KeyRouter* router() const override {
    return inner_->router();
  }
  double PeekErrorBound(uint64_t key) const override {
    return inner_->PeekErrorBound(key);
  }
  bool Lossy() const override { return inner_->Lossy(); }
  std::shared_ptr<const wavebatch::CoefficientStore> PinVersion()
      const override;

 protected:
  wavebatch::Result<double> DoFetch(uint64_t key,
                                    wavebatch::IoStats* io) const override;
  wavebatch::Status DoFetchBatch(std::span<const uint64_t> keys,
                                 std::span<double> out,
                                 wavebatch::IoStats* io) const override;
  wavebatch::Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                                       std::span<const uint32_t> shards,
                                       std::span<double> out,
                                       wavebatch::IoStats* io) const override;

 private:
  std::shared_ptr<const wavebatch::CoefficientStore> inner_;
  std::shared_ptr<FetchLedger> ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_STORE_H_
