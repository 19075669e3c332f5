#include "timing_store.h"

#include <chrono>

#include "util/check.h"

namespace perfbench {

using wavebatch::CoefficientStore;
using wavebatch::IoStats;
using wavebatch::Result;
using wavebatch::Status;

void FetchLedger::Record(size_t keys, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu);
  calls.push_back(Call{static_cast<uint32_t>(keys), ns});
}

std::vector<FetchLedger::Call> FetchLedger::Take() {
  std::lock_guard<std::mutex> lock(mu);
  std::vector<Call> out;
  out.swap(calls);
  return out;
}

namespace {

// Times `read` into `ledger` when it is recording; a plain call otherwise.
template <typename Read>
auto Timed(FetchLedger& ledger, size_t keys, Read&& read) {
  if (!ledger.recording.load(std::memory_order_relaxed)) return read();
  const auto begin = std::chrono::steady_clock::now();
  auto result = read();
  const auto end = std::chrono::steady_clock::now();
  ledger.Record(keys, static_cast<uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              end - begin)
                              .count()));
  return result;
}

}  // namespace

TimingStore::TimingStore(std::shared_ptr<const CoefficientStore> inner,
                         std::shared_ptr<FetchLedger> ledger)
    : inner_(std::move(inner)), ledger_(std::move(ledger)) {
  WB_CHECK(inner_ != nullptr);
  WB_CHECK(ledger_ != nullptr);
}

void TimingStore::Add(uint64_t key, double delta) {
  (void)key;
  (void)delta;
  WB_CHECK(false) << "Add() on a read-only TimingStore";
}

std::shared_ptr<const CoefficientStore> TimingStore::PinVersion() const {
  std::shared_ptr<const CoefficientStore> pinned = inner_->PinVersion();
  if (pinned == nullptr) return nullptr;  // inner is its own snapshot
  return std::make_shared<TimingStore>(std::move(pinned), ledger_);
}

Result<double> TimingStore::DoFetch(uint64_t key, IoStats* io) const {
  return Timed(*ledger_, 1, [&] { return DelegateFetch(*inner_, key, io); });
}

Status TimingStore::DoFetchBatch(std::span<const uint64_t> keys,
                                 std::span<double> out, IoStats* io) const {
  return Timed(*ledger_, keys.size(),
               [&] { return DelegateFetchBatch(*inner_, keys, out, io); });
}

Status TimingStore::DoFetchBatchRouted(std::span<const uint64_t> keys,
                                       std::span<const uint32_t> shards,
                                       std::span<double> out,
                                       IoStats* io) const {
  return Timed(*ledger_, keys.size(), [&] {
    return DelegateFetchBatchRouted(*inner_, keys, shards, out, io);
  });
}

}  // namespace perfbench
