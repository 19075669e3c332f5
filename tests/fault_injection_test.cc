// The fault matrix: every store backend × every fault shape, driven
// through the engine. A failed fetch must surface as a Status (never an
// abort), charge nothing, and leave the session resumable — after the
// fault heals, resuming produces finals bit-identical to a clean run.
// Degraded mode (FaultPolicy::kSkip) instead consumes the failing
// coefficient without data and widens the Theorem-1 bound by exactly the
// skipped importance mass.

#include "storage/fault_injection_store.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/block_store.h"
#include "storage/dense_store.h"
#include "storage/file_store.h"
#include "storage/key_router.h"
#include "storage/memory_store.h"
#include "storage/sharded_store.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace wavebatch {
namespace {

// ---------------------------------------------------------------------------
// FaultInjectionStore unit behavior.

TEST(FaultInjectionStoreTest, PassesThroughWhenNoFaultsConfigured) {
  auto inner = std::make_unique<HashStore>();
  inner->Add(3, 1.5);
  inner->Add(7, -2.0);
  FaultInjectionStore store(std::move(inner));
  EXPECT_EQ(store.name(), "faulty(hash)");
  EXPECT_EQ(store.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(store.SumAbs(), 3.5);

  IoStats io;
  EXPECT_DOUBLE_EQ(store.Fetch(3, &io).value(), 1.5);
  EXPECT_DOUBLE_EQ(store.Fetch(0, &io).value(), 0.0);
  std::vector<uint64_t> keys = {3, 7};
  std::vector<double> out(keys.size());
  ASSERT_TRUE(store.FetchBatch(keys, out, &io).ok());
  EXPECT_DOUBLE_EQ(out[0], 1.5);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
  EXPECT_EQ(io.retrievals, 4u);
  EXPECT_EQ(store.fetch_count(), 4u);
  EXPECT_EQ(store.injected_failures(), 0u);
}

TEST(FaultInjectionStoreTest, FailKeyIsPermanentUntilHeal) {
  auto inner = std::make_unique<HashStore>();
  inner->Add(5, 9.0);
  FaultInjectionStore store(std::move(inner));
  store.FailKey(5);

  IoStats io;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Result<double> r = store.Fetch(5, &io);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  // Other keys are unaffected, and failed fetches charged nothing.
  EXPECT_DOUBLE_EQ(store.Fetch(4, &io).value(), 0.0);
  EXPECT_EQ(io.retrievals, 1u);
  EXPECT_EQ(store.injected_failures(), 3u);

  store.Heal();
  EXPECT_DOUBLE_EQ(store.Fetch(5, &io).value(), 9.0);
  EXPECT_EQ(io.retrievals, 2u);
}

TEST(FaultInjectionStoreTest, FailAtFetchIsOneShot) {
  auto inner = std::make_unique<HashStore>();
  inner->Add(0, 1.0);
  FaultInjectionOptions options;
  options.fail_at_fetch = 2;
  FaultInjectionStore store(std::move(inner), options);

  IoStats io;
  EXPECT_TRUE(store.Fetch(0, &io).ok());   // ordinal 1
  EXPECT_FALSE(store.Fetch(0, &io).ok());  // ordinal 2: fires
  EXPECT_TRUE(store.Fetch(0, &io).ok());   // self-healed
  EXPECT_TRUE(store.Fetch(0, &io).ok());
  EXPECT_EQ(store.injected_failures(), 1u);
  EXPECT_EQ(io.retrievals, 3u);
}

TEST(FaultInjectionStoreTest, FailEveryNthAdvancesSoRetrySucceeds) {
  auto inner = std::make_unique<HashStore>();
  FaultInjectionOptions options;
  options.fail_every_n = 3;
  FaultInjectionStore store(std::move(inner), options);

  IoStats io;
  EXPECT_TRUE(store.Fetch(0, &io).ok());   // 1
  EXPECT_TRUE(store.Fetch(0, &io).ok());   // 2
  EXPECT_FALSE(store.Fetch(0, &io).ok());  // 3: fires
  // The counter advanced on the fault, so an immediate retry is ordinal 4.
  EXPECT_TRUE(store.Fetch(0, &io).ok());
  EXPECT_TRUE(store.Fetch(0, &io).ok());   // 5
  EXPECT_FALSE(store.Fetch(0, &io).ok());  // 6: fires
  EXPECT_EQ(store.injected_failures(), 2u);
  EXPECT_EQ(store.fetch_count(), 6u);
}

TEST(FaultInjectionStoreTest, BatchConsumesOrdinalsUpToTheFault) {
  // Keys are counted in batch order; the first fault fails the whole batch
  // but its ordinal is consumed, so the retried batch replays against a
  // fresh schedule and passes.
  auto inner = std::make_unique<HashStore>();
  inner->Add(0, 1.0);
  inner->Add(1, 2.0);
  inner->Add(2, 3.0);
  FaultInjectionOptions options;
  options.fail_every_n = 3;
  FaultInjectionStore store(std::move(inner), options);

  std::vector<uint64_t> keys = {0, 1, 2};
  std::vector<double> out(keys.size());
  IoStats io;
  Status status = store.FetchBatch(keys, out, &io);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Ordinals 1..3 consumed (the third fired); nothing charged.
  EXPECT_EQ(store.fetch_count(), 3u);
  EXPECT_EQ(io.retrievals, 0u);

  // Retry: ordinals 4, 5, 6 — 6 fires again. One more retry (7, 8, 9 — 9
  // fires)... a batch of 3 against fail_every_n=3 always hits the rule, so
  // heal and confirm the data was never corrupted.
  store.Heal();
  ASSERT_TRUE(store.FetchBatch(keys, out, &io).ok());
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(io.retrievals, 3u);
}

TEST(FaultInjectionStoreTest, HealClearsScheduleRules) {
  auto inner = std::make_unique<HashStore>();
  FaultInjectionOptions options;
  options.fail_every_n = 1;  // every fetch fails
  options.fail_at_fetch = 1;
  FaultInjectionStore store(std::move(inner), options);
  EXPECT_FALSE(store.Fetch(0).ok());
  store.Heal();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(store.Fetch(0).ok());
  EXPECT_EQ(store.injected_failures(), 1u);
}

TEST(FaultInjectionStoreTest, NonOwningWrapSharesInnerState) {
  HashStore inner;
  inner.Add(2, 4.0);
  FaultInjectionStore store(&inner);
  EXPECT_DOUBLE_EQ(store.Fetch(2).value(), 4.0);
  store.Add(2, 1.0);
  EXPECT_DOUBLE_EQ(inner.Peek(2), 5.0);
}

// ---------------------------------------------------------------------------
// The fault matrix: engine sessions over every backend × every fault shape.

struct MatrixFixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::unique_ptr<CoefficientStore> source;
  std::shared_ptr<const EvalPlan> plan;

  MatrixFixture() : rel(MakeUniformRelation(schema, 500, 3)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    Rng rng(9);
    for (int i = 0; i < 12; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
    source = strategy.BuildStore(rel.FrequencyDistribution());
    plan = EvalPlan::FromMasterList(list, std::make_shared<SsePenalty>());
  }
};

/// Builds every backend flavor from one source store, each wrapped in a
/// FaultInjectionStore the test can drive.
struct FaultyBackends {
  struct Entry {
    std::string name;
    std::shared_ptr<FaultInjectionStore> store;
  };
  std::vector<Entry> stores;
  std::string file_path;

  explicit FaultyBackends(const CoefficientStore& source) {
    uint64_t max_key = 0;
    auto hash = std::make_unique<HashStore>();
    auto block_inner = std::make_unique<HashStore>();
    source.ForEachNonZero([&](uint64_t key, double value) {
      max_key = std::max(max_key, key);
      hash->Add(key, value);
      block_inner->Add(key, value);
    });
    std::vector<double> values(max_key + 1, 0.0);
    source.ForEachNonZero(
        [&](uint64_t key, double value) { values[key] = value; });

    file_path = ::testing::TempDir() + "/wavebatch_fault_matrix_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
    auto file = FileStore::Create(file_path, values);
    EXPECT_TRUE(file.ok()) << file.status();

    auto wrap = [this](std::string name,
                       std::unique_ptr<CoefficientStore> inner) {
      stores.push_back(
          {std::move(name),
           std::make_shared<FaultInjectionStore>(std::move(inner))});
    };
    wrap("hash", std::move(hash));
    wrap("dense", std::make_unique<DenseStore>(values));
    wrap("file", std::move(file).value());
    wrap("block", std::make_unique<BlockStore>(std::move(block_inner),
                                               /*block_size=*/8,
                                               /*cache_blocks=*/0));
  }

  ~FaultyBackends() { std::remove(file_path.c_str()); }
};

/// A clean (fault-free) reference run: finals plus per-step history.
std::vector<double> CleanFinals(const std::shared_ptr<const EvalPlan>& plan,
                                std::shared_ptr<const CoefficientStore> store,
                                EvalSession::Options opts) {
  EvalSession session(std::move(plan), std::move(store), opts);
  EXPECT_TRUE(session.RunToExact().ok());
  return session.Estimates();
}

TEST(FaultMatrixTest, FailAtStepKLeavesSessionResumable) {
  MatrixFixture f;
  FaultyBackends backends(*f.source);
  for (const auto& b : backends.stores) {
    SCOPED_TRACE(b.name);
    const std::vector<double> clean = CleanFinals(
        f.plan, b.store, EvalSession::Options());

    // Fresh schedule: fault on the 10th counted fetch.
    b.store->Heal();
    FaultInjectionStore faulty(b.store.get());
    faulty.FailKey(f.list->keys()[f.plan->Permutation(
        ProgressionOrder::kBiggestB)[9]]);
    EvalSession session(f.plan, UnownedStore(faulty), EvalSession::Options());

    // March scalar steps up to the fault.
    Status first_failure = Status::OK();
    while (!session.Done()) {
      const uint64_t before_steps = session.StepsTaken();
      const IoStats before_io = session.io();
      const std::vector<double> before_est = session.Estimates();
      Result<size_t> r = session.Step();
      if (r.ok()) continue;
      first_failure = r.status();
      // The failed call left the session untouched.
      EXPECT_EQ(session.StepsTaken(), before_steps);
      EXPECT_EQ(session.io(), before_io);
      EXPECT_EQ(session.Estimates(), before_est);
      break;
    }
    ASSERT_FALSE(first_failure.ok());
    EXPECT_EQ(first_failure.code(), StatusCode::kUnavailable);
    EXPECT_EQ(session.StepsTaken(), 9u);

    // Retrying without healing fails identically; the session stays put.
    EXPECT_FALSE(session.Step().ok());
    EXPECT_EQ(session.StepsTaken(), 9u);

    // Heal, resume, and the finals are bit-identical to the clean run.
    faulty.Heal();
    ASSERT_TRUE(session.RunToExact().ok());
    EXPECT_TRUE(session.Done());
    EXPECT_EQ(session.io().retrievals, f.list->size());
    EXPECT_EQ(session.Estimates(), clean);
  }
}

TEST(FaultMatrixTest, FailEveryNthSurvivesWithRetries) {
  MatrixFixture f;
  FaultyBackends backends(*f.source);
  for (const auto& b : backends.stores) {
    SCOPED_TRACE(b.name);
    b.store->Heal();
    const std::vector<double> clean = CleanFinals(
        f.plan, b.store, EvalSession::Options());

    FaultInjectionOptions options;
    options.fail_every_n = 7;
    FaultInjectionStore faulty(b.store.get(), options);
    EvalSession session(f.plan, UnownedStore(faulty), EvalSession::Options());

    // Scalar steps with naive retry: each fault is transient (the ordinal
    // advances), so a single retry always clears it.
    while (!session.Done()) {
      Result<size_t> r = session.Step();
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
        ASSERT_TRUE(session.Step().ok());
      }
    }
    EXPECT_GT(faulty.injected_failures(), 0u);
    EXPECT_EQ(session.io().retrievals, f.list->size());
    EXPECT_EQ(session.Estimates(), clean);
  }
}

TEST(FaultMatrixTest, FailOnceThenHealAcrossBatchedSteps) {
  MatrixFixture f;
  FaultyBackends backends(*f.source);
  for (const auto& b : backends.stores) {
    SCOPED_TRACE(b.name);
    b.store->Heal();
    const std::vector<double> clean = CleanFinals(
        f.plan, b.store, EvalSession::Options());

    FaultInjectionOptions options;
    options.fail_at_fetch = 5;  // lands inside the first StepBatch(16)
    FaultInjectionStore faulty(b.store.get(), options);
    EvalSession session(f.plan, UnownedStore(faulty), EvalSession::Options());

    Result<size_t> first = session.StepBatch(16);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
    // All-or-nothing: the failed batch left no trace.
    EXPECT_EQ(session.StepsTaken(), 0u);
    EXPECT_EQ(session.io().retrievals, 0u);

    // fail_at_fetch self-heals, so the retried batch goes through whole.
    EXPECT_EQ(session.StepBatch(16).value(), 16u);
    EXPECT_EQ(session.io().retrievals, 16u);
    ASSERT_TRUE(session.RunToExact().ok());
    EXPECT_EQ(session.Estimates(), clean);
    EXPECT_EQ(session.io().retrievals, f.list->size());
  }
}

TEST(FaultMatrixTest, BlockGranularityFaultIsResumable) {
  MatrixFixture f;
  FaultyBackends backends(*f.source);
  auto block_of = [](uint64_t key) { return key / 8; };
  for (const auto& b : backends.stores) {
    SCOPED_TRACE(b.name);
    b.store->Heal();
    EvalSession::Options opts;
    opts.block_of = block_of;
    const std::vector<double> clean = CleanFinals(f.plan, b.store, opts);

    FaultInjectionOptions options;
    options.fail_at_fetch = 2;  // inside the first block's batch
    FaultInjectionStore faulty(b.store.get(), options);
    EvalSession session(f.plan, UnownedStore(faulty), opts);

    // March block by block; the one-shot fault fires in exactly one block's
    // batch, leaves that call without a trace, and the immediate retry goes
    // through (fail_at_fetch self-heals).
    bool saw_fault = false;
    while (!session.Done()) {
      const uint64_t before_blocks = session.BlocksFetched();
      const uint64_t before_coeffs = session.CoefficientsFetched();
      const IoStats before_io = session.io();
      Result<size_t> r = session.StepBlock();
      if (r.ok()) continue;
      saw_fault = true;
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(session.BlocksFetched(), before_blocks);
      EXPECT_EQ(session.CoefficientsFetched(), before_coeffs);
      EXPECT_EQ(session.io(), before_io);
      ASSERT_TRUE(session.StepBlock().ok());
    }
    EXPECT_TRUE(saw_fault);
    EXPECT_EQ(session.BlocksFetched(), session.TotalBlocks());
    EXPECT_EQ(session.Estimates(), clean);
  }
}

TEST(FaultMatrixTest, DegradedModeSkipsAndWidensTheBound) {
  MatrixFixture f;
  FaultyBackends backends(*f.source);
  for (const auto& b : backends.stores) {
    SCOPED_TRACE(b.name);
    b.store->Heal();
    const double k = b.store->SumAbs();

    // Permanently fail the keys of two master-list entries.
    const std::span<const size_t> order =
        f.plan->Permutation(ProgressionOrder::kBiggestB);
    const size_t skip_a = order[3];
    const size_t skip_b = order[11];
    const uint64_t key_a = f.list->keys()[skip_a];
    const uint64_t key_b = f.list->keys()[skip_b];
    ASSERT_NE(key_a, key_b);
    FaultInjectionStore faulty(b.store.get());
    faulty.FailKey(key_a);
    faulty.FailKey(key_b);

    // Clean reference on a store where the failed coefficients read as 0 —
    // that is exactly what a degraded session should compute.
    auto zeroed = std::make_unique<HashStore>();
    b.store->ForEachNonZero([&](uint64_t key, double value) {
      if (key != key_a && key != key_b) zeroed->Add(key, value);
    });
    const std::vector<double> reference = CleanFinals(
        f.plan, UnownedStore(*zeroed), EvalSession::Options());

    // Fault-free bound trajectory for comparison.
    EvalSession witness(f.plan, b.store, EvalSession::Options());

    EvalSession::Options opts;
    opts.fault_policy = FaultPolicy::kSkip;
    EvalSession session(f.plan, UnownedStore(faulty), opts);
    ASSERT_TRUE(session.RunToExact().ok());
    EXPECT_TRUE(session.Done());
    ASSERT_TRUE(witness.RunToExact().ok());

    EXPECT_EQ(session.SkippedCoefficients(), 2u);
    const double skipped = f.plan->importance(skip_a) +
                           f.plan->importance(skip_b);
    EXPECT_DOUBLE_EQ(session.SkippedImportance(), skipped);
    // Only the available coefficients were charged.
    EXPECT_EQ(session.io().retrievals, f.list->size() - 2);
    // Theorem 1 widens additively by K^α · ι_skipped over the fault-free
    // bound (0 at Done): the skipped coefficients never leave the unknown
    // set.
    const double alpha = f.plan->penalty()->HomogeneityDegree();
    EXPECT_DOUBLE_EQ(session.WorstCaseBound(k),
                     witness.WorstCaseBound(k) +
                         std::pow(k, alpha) * skipped);
    // Theorem 2: skipped coefficients stay in the unused mass.
    EXPECT_NEAR(session.ExpectedPenalty(f.schema.cell_count()),
                skipped / static_cast<double>(f.schema.cell_count()),
                1e-9 * (1.0 + skipped));
    // Estimates equal the zeroed-store clean run bit for bit.
    EXPECT_EQ(session.Estimates(), reference);
  }
}

TEST(FaultMatrixTest, DegradedModeBatchFallsBackToScalar) {
  // A batched step under kSkip must skip only the genuinely failed keys —
  // the rest of the batch contributes normally.
  MatrixFixture f;
  FaultyBackends backends(*f.source);
  for (const auto& b : backends.stores) {
    SCOPED_TRACE(b.name);
    b.store->Heal();

    const std::span<const size_t> order =
        f.plan->Permutation(ProgressionOrder::kBiggestB);
    const size_t skip_idx = order[2];  // inside the first StepBatch(8)
    FaultInjectionStore faulty(b.store.get());
    faulty.FailKey(f.list->keys()[skip_idx]);

    EvalSession::Options opts;
    opts.fault_policy = FaultPolicy::kSkip;
    EvalSession session(f.plan, UnownedStore(faulty), opts);
    EXPECT_EQ(session.StepBatch(8).value(), 8u);
    EXPECT_EQ(session.StepsTaken(), 8u);
    EXPECT_EQ(session.SkippedCoefficients(), 1u);
    EXPECT_EQ(session.io().retrievals, 7u);
    ASSERT_TRUE(session.RunToExact().ok());
    EXPECT_EQ(session.SkippedCoefficients(), 1u);
    EXPECT_EQ(session.io().retrievals, f.list->size() - 1);
  }
}

// ---------------------------------------------------------------------------
// The sharded axis of the matrix: S ∈ {1, 4} with exactly one faulty shard.
// Faults compose per shard — a dead shard fails exactly the fetches of the
// keys it owns, which kFail turns into resumable sessions and kSkip into
// degradation by exactly that shard's importance mass.

/// A sharded plane over `source` with shard `faulty_shard` wrapped in a
/// FaultInjectionStore (kept accessible for FailKey/Heal).
struct ShardedFaultyPlane {
  KeyRouter router;
  std::unique_ptr<ShardedStore> store;
  FaultInjectionStore* faulty = nullptr;

  ShardedFaultyPlane(const CoefficientStore& source, size_t num_shards,
                     size_t faulty_shard) {
    uint64_t max_key = 0;
    source.ForEachNonZero(
        [&](uint64_t key, double) { max_key = std::max(max_key, key); });
    router = KeyRouter::Uniform(max_key + 1, num_shards);
    std::vector<std::unique_ptr<HashStore>> backends;
    for (size_t s = 0; s < num_shards; ++s) {
      backends.push_back(std::make_unique<HashStore>());
    }
    source.ForEachNonZero([&](uint64_t key, double value) {
      backends[router.ShardOf(key)]->Add(key, value);
    });
    std::vector<std::unique_ptr<CoefficientStore>> shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (s == faulty_shard) {
        auto wrapped =
            std::make_unique<FaultInjectionStore>(std::move(backends[s]));
        faulty = wrapped.get();
        shards.push_back(std::move(wrapped));
      } else {
        shards.push_back(std::move(backends[s]));
      }
    }
    store = std::make_unique<ShardedStore>(std::move(shards), router);
  }

  /// Master-list entry indices whose keys the faulty shard owns.
  std::vector<size_t> OwnedEntries(const MasterList& list,
                                   size_t faulty_shard) const {
    std::vector<size_t> owned;
    for (size_t i = 0; i < list.size(); ++i) {
      if (router.ShardOf(list.keys()[i]) == faulty_shard) owned.push_back(i);
    }
    return owned;
  }
};

class ShardedFaultMatrixTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedFaultMatrixTest, KFailSessionResumesAfterHeal) {
  const size_t num_shards = GetParam();
  const size_t faulty_shard = num_shards - 1;
  MatrixFixture f;
  ShardedFaultyPlane plane(*f.source, num_shards, faulty_shard);
  const std::vector<size_t> owned =
      plane.OwnedEntries(*f.list, faulty_shard);
  ASSERT_FALSE(owned.empty()) << "pick a shard that owns plan keys";
  const std::vector<double> clean = CleanFinals(
      f.plan, UnownedStore(*f.source), EvalSession::Options());

  // Kill the shard: every key it owns fails until Heal().
  for (size_t entry : owned) plane.faulty->FailKey(f.list->keys()[entry]);

  EvalSession session(f.plan, UnownedStore(*plane.store),
                      EvalSession::Options());
  Status run = session.RunToExact();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(session.Done());
  // All-or-nothing batches: whatever completed before the failing batch is
  // kept, the failing batch left no trace, and every charged retrieval is
  // a real one.
  EXPECT_EQ(session.io().retrievals, session.StepsTaken());

  // The degraded plane keeps serving the healthy shards' keys.
  IoStats probe_io;
  for (size_t i = 0; i < f.list->size(); ++i) {
    if (plane.router.ShardOf(f.list->keys()[i]) != faulty_shard) {
      EXPECT_TRUE(plane.store->Fetch(f.list->keys()[i], &probe_io).ok());
      break;
    }
  }

  plane.faulty->Heal();
  ASSERT_TRUE(session.RunToExact().ok());
  EXPECT_TRUE(session.Done());
  EXPECT_EQ(session.io().retrievals, f.list->size());
  EXPECT_EQ(session.Estimates(), clean);
}

TEST_P(ShardedFaultMatrixTest, KSkipDegradesOnlyTheFaultyShardsMass) {
  const size_t num_shards = GetParam();
  const size_t faulty_shard = num_shards - 1;
  MatrixFixture f;
  ShardedFaultyPlane plane(*f.source, num_shards, faulty_shard);
  const std::vector<size_t> owned =
      plane.OwnedEntries(*f.list, faulty_shard);
  ASSERT_FALSE(owned.empty());
  const double k = f.source->SumAbs();

  for (size_t entry : owned) plane.faulty->FailKey(f.list->keys()[entry]);

  // Reference: a clean run over the plane with the faulty shard's
  // coefficients zeroed — exactly what degradation should compute.
  auto zeroed = std::make_unique<HashStore>();
  f.source->ForEachNonZero([&](uint64_t key, double value) {
    if (plane.router.ShardOf(key) != faulty_shard) zeroed->Add(key, value);
  });
  const std::vector<double> reference = CleanFinals(
      f.plan, UnownedStore(*zeroed), EvalSession::Options());
  // Fault-free witness for the bound trajectory.
  EvalSession witness(f.plan, UnownedStore(*f.source), EvalSession::Options());
  ASSERT_TRUE(witness.RunToExact().ok());

  EvalSession::Options opts;
  opts.fault_policy = FaultPolicy::kSkip;
  EvalSession session(f.plan, UnownedStore(*plane.store), opts);
  ASSERT_TRUE(session.RunToExact().ok());
  EXPECT_TRUE(session.Done());

  // Degradation is exactly the faulty shard's entries — no more, no less.
  EXPECT_EQ(session.SkippedCoefficients(), owned.size());
  double skipped = 0.0;
  for (size_t entry : owned) skipped += f.plan->importance(entry);
  EXPECT_DOUBLE_EQ(session.SkippedImportance(), skipped);
  EXPECT_EQ(session.io().retrievals, f.list->size() - owned.size());
  // Theorem 1 widens by exactly the skipped mass (times K^α).
  const double alpha = f.plan->penalty()->HomogeneityDegree();
  EXPECT_DOUBLE_EQ(session.WorstCaseBound(k),
                   witness.WorstCaseBound(k) + std::pow(k, alpha) * skipped);
  EXPECT_EQ(session.Estimates(), reference);

  // Per-shard accounting: healthy shards served all their keys, the faulty
  // shard served none.
  EXPECT_EQ(plane.store->shard_keys_fetched(faulty_shard), 0u);
  uint64_t healthy = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (s != faulty_shard) healthy += plane.store->shard_keys_fetched(s);
  }
  EXPECT_EQ(healthy, f.list->size() - owned.size());
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedFaultMatrixTest,
                         ::testing::Values(size_t{1}, size_t{4}));

// ---------------------------------------------------------------------------
// Telemetry: injected faults and latency are visible end to end.

TEST(FaultInjectionTelemetryTest, InjectedLatencyShowsInHistogramAndSpans) {
  auto& registry = telemetry::MetricsRegistry::Default();
  telemetry::MetricsRegistry::Enable();
  registry.ResetValues();

  auto inner = std::make_unique<HashStore>();
  inner->Add(1, 2.0);
  inner->Add(2, -3.0);
  FaultInjectionOptions options;
  options.latency = std::chrono::microseconds(2000);
  FaultInjectionStore store(std::move(inner), options);

  const size_t spans_before = registry.Spans().size();
  std::vector<uint64_t> keys = {1, 2};
  std::vector<double> out(keys.size());
  ASSERT_TRUE(store.FetchBatch(keys, out).ok());

  // The batch-latency histogram for this store saw one observation of at
  // least the injected 2 ms (in nanoseconds).
  telemetry::Histogram* hist = registry.GetHistogram(
      "wavebatch_store_fetch_batch_latency_ns", {{"store", store.name()}});
  EXPECT_EQ(hist->Count(), 1u);
  EXPECT_GE(hist->Sum(), 2'000'000u);
  // The observation landed at or above the bucket containing 2 ms.
  const size_t min_bucket = telemetry::Histogram::BucketIndex(2'000'000);
  uint64_t below = 0;
  for (size_t i = 0; i < min_bucket; ++i) below += hist->BucketCount(i);
  EXPECT_EQ(below, 0u);

  // And the wrapper emitted a store_fetch_batch span covering the latency.
  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  ASSERT_GT(spans.size(), spans_before);
  bool found = false;
  for (size_t i = spans_before; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "store_fetch_batch" &&
        spans[i].dur_us >= 2000.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no store_fetch_batch span >= 2ms recorded";
}

TEST(FaultInjectionTelemetryTest, InjectedFaultsAreCounted) {
  auto& registry = telemetry::MetricsRegistry::Default();
  telemetry::MetricsRegistry::Enable();
  registry.ResetValues();

  auto inner = std::make_unique<HashStore>();
  inner->Add(5, 1.0);
  FaultInjectionStore store(std::move(inner));
  telemetry::Counter* faults = registry.GetCounter(
      "wavebatch_injected_faults_total", {{"store", store.name()}});
  EXPECT_EQ(faults->Value(), 0u);

  store.FailKey(5);
  EXPECT_FALSE(store.Fetch(5).ok());
  EXPECT_FALSE(store.Fetch(5).ok());
  EXPECT_EQ(faults->Value(), 2u);
  EXPECT_EQ(store.injected_failures(), 2u);

  // Error-by-code accounting on the wrapper side matches.
  telemetry::Counter* unavailable = registry.GetCounter(
      "wavebatch_store_fetch_errors_total",
      {{"store", store.name()}, {"code", "unavailable"}});
  EXPECT_EQ(unavailable->Value(), 2u);
}

}  // namespace
}  // namespace wavebatch
