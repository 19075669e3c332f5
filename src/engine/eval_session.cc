#include "engine/eval_session.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "storage/key_router.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch {

std::shared_ptr<const CoefficientStore> UnownedStore(
    const CoefficientStore& store) {
  return std::shared_ptr<const CoefficientStore>(
      &store, [](const CoefficientStore*) {});
}

struct EvalSession::Telemetry {
  telemetry::Labels labels;
  telemetry::Gauge* steps_taken;
  telemetry::Gauge* remaining_importance;
  telemetry::Gauge* worst_case_bound;
  telemetry::Gauge* skipped_importance;

  explicit Telemetry(uint64_t session_id)
      : labels{{"session", std::to_string(session_id)}} {
    auto& registry = telemetry::MetricsRegistry::Default();
    steps_taken = registry.GetGauge(
        "wavebatch_session_steps_taken", labels,
        "Coefficients consumed by this session so far.");
    remaining_importance = registry.GetGauge(
        "wavebatch_session_remaining_importance", labels,
        "Importance mass of the not-yet-fetched tail (Theorem 2's sum).");
    worst_case_bound = registry.GetGauge(
        "wavebatch_session_worst_case_bound", labels,
        "Theorem 1 worst-case penalty bound at the last WorstCaseBound().");
    skipped_importance = registry.GetGauge(
        "wavebatch_session_skipped_importance", labels,
        "Importance mass consumed without data under FaultPolicy::kSkip.");
  }

  // The session is the sole creator of these series, so it may Remove()
  // them: a finished session leaves no stale gauges in the export.
  ~Telemetry() {
    auto& registry = telemetry::MetricsRegistry::Default();
    registry.Remove("wavebatch_session_steps_taken", labels);
    registry.Remove("wavebatch_session_remaining_importance", labels);
    registry.Remove("wavebatch_session_worst_case_bound", labels);
    registry.Remove("wavebatch_session_skipped_importance", labels);
  }
};

EvalSession::EvalSession(std::shared_ptr<const EvalPlan> plan,
                         std::shared_ptr<const CoefficientStore> store,
                         Options options)
    : plan_(std::move(plan)),
      store_(std::move(store)),
      options_(std::move(options)) {
  WB_CHECK(plan_ != nullptr);
  WB_CHECK(store_ != nullptr);
  // Epoch pinning: a store whose contents advance in epochs
  // (VersionedStore) hands back an immutable snapshot of the epoch current
  // *now*; every read this session ever issues — including retries and
  // resume-after-fault, which may happen long after — goes to that one
  // version, so interleaved ingests and merges can never tear a
  // progressive run. Stores that are their own snapshot return null and
  // are used directly.
  if (std::shared_ptr<const CoefficientStore> pinned = store_->PinVersion()) {
    store_ = std::move(pinned);
  }
  kernel_ = plan_->kernel();
  // Lossy-store gate: checked on the PINNED store (the view this session
  // actually reads). Exact stores keep the zero-overhead path.
  lossy_ = store_->Lossy();
  if (plan_->HasImportance()) {
    inv_alpha_ = 1.0 / plan_->penalty()->HomogeneityDegree();
  }
  if (const KeyRouter* router = store_->router();
      router != nullptr && router->num_shards() > 1) {
    entry_shards_.resize(plan_->size());
    for (size_t i = 0; i < entry_shards_.size(); ++i) {
      entry_shards_[i] = router->ShardOf(kernel_.keys[i]);
    }
  }
  if (telemetry::Enabled()) {
    static std::atomic<uint64_t> next_session_id{1};
    telemetry_ = std::make_unique<Telemetry>(
        next_session_id.fetch_add(1, std::memory_order_relaxed));
  }
  estimates_.assign(plan_->num_queries(), 0.0);
  if (plan_->HasImportance()) {
    remaining_importance_ = plan_->total_importance();
  }

  if (options_.block_of) {
    // Group entries by block in first-appearance order; a block's
    // importance is the sum of its members' (additive in Theorem 2's
    // expected-penalty sum), accumulated in entry order.
    WB_CHECK(plan_->HasImportance())
        << "block granularity needs a penalty to rank blocks";
    const MasterList& list = plan_->list();
    std::unordered_map<uint64_t, size_t> block_index;
    for (size_t i = 0; i < list.size(); ++i) {
      const uint64_t block_id = options_.block_of(list.keys()[i]);
      auto [it, inserted] = block_index.try_emplace(block_id, blocks_.size());
      if (inserted) blocks_.push_back({block_id, 0.0, {}});
      Block& block = blocks_[it->second];
      block.importance += plan_->importance(i);
      block.entries.push_back(i);
    }
    // A max-heap of (importance, index) pops in descending pair order;
    // sorting the distinct pairs descending reproduces that sequence.
    block_order_.resize(blocks_.size());
    for (size_t b = 0; b < blocks_.size(); ++b) block_order_[b] = b;
    std::sort(block_order_.begin(), block_order_.end(),
              [this](size_t a, size_t b) {
                return std::make_pair(blocks_[a].importance, a) >
                       std::make_pair(blocks_[b].importance, b);
              });
    UpdateTelemetry();
    return;
  }

  if (options_.order == ProgressionOrder::kRandom) {
    owned_permutation_ = plan_->RandomPermutation(options_.seed);
    permutation_ = owned_permutation_;
  } else {
    permutation_ = plan_->Permutation(options_.order);
  }
  UpdateTelemetry();
}

EvalSession::~EvalSession() = default;
EvalSession::EvalSession(EvalSession&&) noexcept = default;
EvalSession& EvalSession::operator=(EvalSession&&) noexcept = default;

void EvalSession::UpdateTelemetry() {
  if (telemetry_ == nullptr || !telemetry::Enabled()) return;
  telemetry_->steps_taken->Set(static_cast<double>(steps_taken_));
  telemetry_->remaining_importance->Set(remaining_importance_);
  telemetry_->skipped_importance->Set(skipped_importance_);
}

bool EvalSession::Done() const {
  if (options_.block_of) return blocks_fetched_ == blocks_.size();
  return steps_taken_ == TotalSteps();
}

size_t EvalSession::PeekUpcomingKeys(size_t n, std::vector<uint64_t>* out) const {
  size_t appended = 0;
  if (options_.block_of) {
    for (uint64_t b = blocks_fetched_; b < blocks_.size() && appended < n;
         ++b) {
      for (size_t entry_idx : blocks_[block_order_[b]].entries) {
        out->push_back(kernel_.keys[entry_idx]);
        ++appended;
      }
    }
    return appended;
  }
  const size_t end = std::min(TotalSteps(), steps_taken_ + n);
  for (size_t i = steps_taken_; i < end; ++i) {
    out->push_back(kernel_.keys[permutation_[i]]);
    ++appended;
  }
  return appended;
}

void EvalSession::ApplyEntry(size_t entry_idx, double data) {
  kernel_.ApplyOne(entry_idx, data, estimates_.data());
}

void EvalSession::ConsumeImportance(size_t entry_idx) {
  kernel_.ConsumeImportance(entry_idx, &remaining_importance_);
}

void EvalSession::SkipEntry(size_t entry_idx) {
  ++skipped_coefficients_;
  if (plan_->HasImportance()) {
    // The skipped mass stays in remaining_importance_ (it is still an
    // unused coefficient for Theorem 2) and additionally accumulates here
    // so Theorem 1's bound can be widened by it.
    skipped_importance_ += plan_->importance(entry_idx);
  }
}

void EvalSession::AccumulateQuantError(const size_t* order, size_t n) {
  if (!lossy_ || !plan_->HasImportance()) return;
  // Each retrieved coefficient may be off by up to the store's per-key
  // decode bound ε_ξ; in the penalty's α-norm geometry that adds
  // ε_ξ · ι_p(ξ)^(1/α) to the error mass (see WorstCaseBound). Skipped
  // entries are excluded — their widening goes through skipped_importance_.
  for (size_t i = 0; i < n; ++i) {
    const size_t entry_idx = order[i];
    const double err = store_->PeekErrorBound(kernel_.keys[entry_idx]);
    if (err > 0.0) {
      quant_error_l1_ +=
          err * std::pow(plan_->importance(entry_idx), inv_alpha_);
    }
  }
}

Result<size_t> EvalSession::Step() {
  WB_CHECK(!options_.block_of) << "Step() on a block-granularity session";
  WB_CHECK(!Done()) << "Step() after completion";
  const size_t entry_idx = permutation_[steps_taken_];
  // Fetch BEFORE any bookkeeping: a failed fetch must leave the session
  // exactly as it was (resumable), so the cursor and trackers only move
  // once the data is in hand (or the fault is absorbed under kSkip).
  Result<double> data = store_->Fetch(kernel_.keys[entry_idx], &io_);
  if (!data.ok()) {
    if (options_.fault_policy == FaultPolicy::kFail) return data.status();
    ++steps_taken_;
    SkipEntry(entry_idx);
    UpdateTelemetry();
    return entry_idx;
  }
  ++steps_taken_;
  ConsumeImportance(entry_idx);
  ApplyEntry(entry_idx, *data);
  AccumulateQuantError(&entry_idx, 1);
  UpdateTelemetry();
  return entry_idx;
}

Status EvalSession::StepMany(size_t n) {
  for (size_t i = 0; i < n && !Done(); ++i) {
    Result<size_t> step = Step();
    if (!step.ok()) return step.status();
  }
  return Status::OK();
}

Status EvalSession::BatchFetch(const size_t* order, size_t n) {
  batch_keys_.resize(n);
  kernel_.GatherKeys(order, n, batch_keys_.data());
  batch_values_.resize(n);
  if (entry_shards_.empty()) {
    return store_->FetchBatch(batch_keys_, batch_values_, &io_);
  }
  batch_shards_.resize(n);
  kernel_.GatherShards(order, n, entry_shards_.data(), batch_shards_.data());
  return store_->FetchBatchRouted(batch_keys_, batch_shards_, batch_values_,
                                  &io_);
}

Result<size_t> EvalSession::StepBatch(size_t n) {
  WB_CHECK(!options_.block_of) << "StepBatch() on a block-granularity session";
  n = std::min<size_t>(n, TotalSteps() - StepsTaken());
  if (n == 0) return static_cast<size_t>(0);
  telemetry::ScopedSpan span("session_step");
  const size_t* order = permutation_.data() + steps_taken_;
  Status status = BatchFetch(order, n);
  if (!status.ok()) {
    if (options_.fault_policy == FaultPolicy::kFail) return status;
    // Degraded fallback: the all-or-nothing batch failed, so refetch key by
    // key and skip only the ones that are genuinely unavailable. Retrieval
    // accounting matches: the failed batch charged nothing, each scalar
    // success charges one.
    for (size_t i = 0; i < n; ++i) {
      const size_t entry_idx = order[i];
      Result<double> value = store_->Fetch(batch_keys_[i], &io_);
      ++steps_taken_;
      if (!value.ok()) {
        SkipEntry(entry_idx);
        continue;
      }
      ConsumeImportance(entry_idx);
      ApplyEntry(entry_idx, *value);
      AccumulateQuantError(&entry_idx, 1);
    }
    UpdateTelemetry();
    return n;
  }
  steps_taken_ += n;
  // Fused apply in consumption order: the identical floating-point
  // accumulation sequence a scalar Step() loop would produce.
  kernel_.ApplyOrderedSlice(order, n, batch_values_.data(), estimates_.data(),
                            &remaining_importance_);
  AccumulateQuantError(order, n);
  UpdateTelemetry();
  return n;
}

Status EvalSession::RunToExact() {
  if (options_.block_of) {
    while (!Done()) {
      Result<size_t> block = StepBlock();
      if (!block.ok()) return block.status();
    }
    return Status::OK();
  }
  while (!Done()) {
    Result<size_t> batch = StepBatch(options_.run_chunk);
    if (!batch.ok()) return batch.status();
  }
  return Status::OK();
}

Result<size_t> EvalSession::StepBlock() {
  WB_CHECK(options_.block_of) << "StepBlock() on a coefficient session";
  WB_CHECK(!Done()) << "StepBlock() after completion";
  telemetry::ScopedSpan span("session_step");
  const Block& block = blocks_[block_order_[blocks_fetched_]];
  const size_t count = block.entries.size();
  // One batched fetch per block — on a BlockStore backend this touches the
  // underlying block exactly once, matching the simulated cost model.
  Status status = BatchFetch(block.entries.data(), count);
  if (!status.ok()) {
    if (options_.fault_policy == FaultPolicy::kFail) return status;
    // Degraded fallback, per key (see StepBatch). The block is consumed
    // either way; only the unavailable members are skipped.
    ++blocks_fetched_;
    for (size_t i = 0; i < count; ++i) {
      const size_t entry_idx = block.entries[i];
      Result<double> value = store_->Fetch(batch_keys_[i], &io_);
      ++steps_taken_;
      if (!value.ok()) {
        SkipEntry(entry_idx);
        continue;
      }
      ++coefficients_fetched_;
      ConsumeImportance(entry_idx);
      ApplyEntry(entry_idx, *value);
      AccumulateQuantError(&entry_idx, 1);
    }
    UpdateTelemetry();
    return count;
  }
  ++blocks_fetched_;
  coefficients_fetched_ += count;
  steps_taken_ += count;
  kernel_.ApplyOrderedSlice(block.entries.data(), count,
                            batch_values_.data(), estimates_.data(),
                            &remaining_importance_);
  AccumulateQuantError(block.entries.data(), count);
  UpdateTelemetry();
  return count;
}

Status EvalSession::StepToBlocks(uint64_t n) {
  while (!Done() && blocks_fetched_ < n) {
    Result<size_t> block = StepBlock();
    if (!block.ok()) return block.status();
  }
  return Status::OK();
}

double EvalSession::NextBlockImportance() const {
  if (Done()) return 0.0;
  return blocks_[block_order_[blocks_fetched_]].importance;
}

double EvalSession::NextImportance() const {
  if (Done()) return 0.0;
  if (options_.block_of) return NextBlockImportance();
  return plan_->importance(permutation_[steps_taken_]);
}

double EvalSession::WorstCaseBound(double k_sum_abs) const {
  WB_CHECK(plan_->HasImportance());
  // Degraded runs widen the bound by the skipped mass: a coefficient we
  // could not read is bounded by K in magnitude exactly like one we have
  // not read yet, but it never leaves the unknown set.
  const double alpha = plan_->penalty()->HomogeneityDegree();
  double bound =
      std::pow(k_sum_abs, alpha) * (NextImportance() + skipped_importance_);
  if (quant_error_l1_ > 0.0) {
    // Lossy reads: the already-applied coefficients carry decode error too.
    // Combine in the penalty's α-norm geometry — the 1/α-th roots of the
    // per-source worst cases add (triangle inequality), then raise back:
    //   bound = (tail^(1/α) + Σ ε_ξ·ι_p(ξ)^(1/α))^α.
    // For α = 1 this is exactly tail + Σ ε·ι. Guarded so exact stores
    // return the untouched Theorem-1 expression bit for bit.
    bound = std::pow(std::pow(bound, inv_alpha_) + quant_error_l1_, alpha);
  }
  if (telemetry_ != nullptr && telemetry::Enabled()) {
    telemetry_->worst_case_bound->Set(bound);
  }
  return bound;
}

double EvalSession::ExpectedPenalty(uint64_t domain_cells) const {
  WB_CHECK_GT(domain_cells, 0u);
  // remaining_importance_ is clamped at subtraction time; the max here is
  // belt and braces for older serialized sessions.
  const double remaining = std::max(remaining_importance_, 0.0);
  return remaining / static_cast<double>(domain_cells);
}

}  // namespace wavebatch
