// The engine layer's contract: EvalPlan + EvalSession reproduce every
// reference evaluator (tests/reference/) bit for bit — estimates, Theorem
// 1/2 bound trackers, and retrieval counts — across all four progression
// orders and all four store backends, while fixing the lifetime and
// accounting problems (shared ownership, per-session IoStats).

#include "engine/eval_plan.h"
#include "engine/eval_session.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "engine/bounded.h"
#include "engine/plan_cache.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "reference/block_progressive.h"
#include "reference/bounded_workspace.h"
#include "reference/progressive.h"
#include "storage/block_store.h"
#include "storage/dense_store.h"
#include "storage/fault_injection_store.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::unique_ptr<CoefficientStore> store;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::vector<double> exact;

  Fixture() : rel(MakeUniformRelation(schema, 500, 3)), batch(schema) {
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
    store = strategy.BuildStore(rel.FrequencyDistribution());
    plan = EvalPlan::FromMasterList(list, sse);
    exact = batch.BruteForce(rel);
  }
};

/// Copies a store's contents into every backend flavor (BlockStore is
/// unbuffered so its per-call block counters are history-independent).
struct Backends {
  std::vector<std::pair<std::string, std::unique_ptr<CoefficientStore>>>
      stores;
  std::string file_path;

  explicit Backends(const CoefficientStore& source) {
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

    file_path = ::testing::TempDir() + "/wavebatch_engine_test_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
    auto file = FileStore::Create(file_path, values);
    EXPECT_TRUE(file.ok()) << file.status();

    stores.emplace_back("hash", std::move(hash));
    stores.emplace_back("dense", std::make_unique<DenseStore>(values));
    stores.emplace_back("file", std::move(file).value());
    stores.emplace_back("block",
                        std::make_unique<BlockStore>(std::move(block_inner),
                                                     /*block_size=*/8,
                                                     /*cache_blocks=*/0));
  }

  ~Backends() { std::remove(file_path.c_str()); }
};

class EngineOrderTest : public ::testing::TestWithParam<ProgressionOrder> {};

TEST_P(EngineOrderTest, GoldenAgainstLegacyEvaluatorOnEveryBackend) {
  // Lockstep: after every batch of steps the session and the legacy
  // evaluator must agree exactly — estimates, both bound trackers, next
  // importance, steps, and I/O.
  Fixture f;
  Backends backends(*f.store);
  for (auto& [name, store] : backends.stores) {
    ProgressiveEvaluator legacy(f.list.get(), f.sse.get(), store.get(),
                                GetParam(), 17);
    EvalSession::Options opts;
    opts.order = GetParam();
    opts.seed = 17;
    EvalSession session(f.plan, UnownedStore(*store), opts);
    ASSERT_EQ(session.TotalSteps(), legacy.TotalSteps());
    const double k = store->SumAbs();
    const size_t batch_sizes[] = {1, 3, 7, 16, 64};
    size_t bi = 0;
    while (!session.Done()) {
      EXPECT_EQ(session.NextImportance(), legacy.NextImportance()) << name;
      const size_t n = batch_sizes[bi++ % std::size(batch_sizes)];
      const size_t taken = session.StepBatch(n).value();
      EXPECT_EQ(taken, legacy.StepBatch(n)) << name;
      ASSERT_EQ(session.StepsTaken(), legacy.StepsTaken()) << name;
      for (size_t q = 0; q < f.batch.size(); ++q) {
        EXPECT_EQ(session.Estimates()[q], legacy.Estimates()[q])
            << name << " query " << q << " after " << session.StepsTaken();
      }
      EXPECT_EQ(session.WorstCaseBound(k), legacy.WorstCaseBound(k)) << name;
      EXPECT_EQ(session.ExpectedPenalty(f.schema.cell_count()),
                legacy.ExpectedPenalty(f.schema.cell_count()))
          << name;
      // Invariant: the remaining importance mass is clamped, so the
      // Theorem-2 tracker can never report a negative expected penalty.
      EXPECT_GE(session.ExpectedPenalty(f.schema.cell_count()), 0.0) << name;
      EXPECT_EQ(session.io(), legacy.io()) << name;
    }
    EXPECT_TRUE(legacy.Done());
    EXPECT_EQ(session.io().retrievals, f.list->size());
    for (size_t i = 0; i < f.exact.size(); ++i) {
      EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                  1e-6 * (1.0 + std::abs(f.exact[i])));
    }
  }
}

TEST_P(EngineOrderTest, ScalarStepsMatchLegacyEntryForEntry) {
  Fixture f;
  ProgressiveEvaluator legacy(f.list.get(), f.sse.get(), f.store.get(),
                              GetParam(), 17);
  EvalSession::Options opts;
  opts.order = GetParam();
  opts.seed = 17;
  EvalSession session(f.plan, UnownedStore(*f.store), opts);
  while (!session.Done()) {
    EXPECT_EQ(session.Step().value(), legacy.Step());
  }
  EXPECT_TRUE(legacy.Done());
  EXPECT_EQ(session.io(), legacy.io());
}

TEST_P(EngineOrderTest, SkipModeBatchAndScalarPathsAgree) {
  // Under FaultPolicy::kSkip a failed FetchBatch falls back to per-key
  // scalar fetches. That fallback and a pure scalar Step() loop must be
  // indistinguishable: same estimates, same bound trackers, same skipped
  // mass — entry for entry, under every progression order.
  Fixture f;
  auto make_faulty = [&] {
    auto inner = std::make_unique<HashStore>();
    f.store->ForEachNonZero(
        [&](uint64_t key, double value) { inner->Add(key, value); });
    auto faulty = std::make_unique<FaultInjectionStore>(std::move(inner));
    for (size_t i = 0; i < f.list->size(); i += 3) {
      faulty->FailKey(f.list->keys()[i]);
    }
    return faulty;
  };
  auto batch_store = make_faulty();
  auto scalar_store = make_faulty();
  EvalSession::Options opts;
  opts.order = GetParam();
  opts.seed = 17;
  opts.fault_policy = FaultPolicy::kSkip;
  EvalSession batched(f.plan, UnownedStore(*batch_store), opts);
  EvalSession scalar(f.plan, UnownedStore(*scalar_store), opts);
  const double k = f.store->SumAbs();
  const size_t batch_sizes[] = {1, 3, 7, 16, 64};
  size_t bi = 0;
  while (!batched.Done()) {
    const size_t n = batch_sizes[bi++ % std::size(batch_sizes)];
    const size_t taken = batched.StepBatch(n).value();
    ASSERT_TRUE(scalar.StepMany(taken).ok());
    ASSERT_EQ(batched.StepsTaken(), scalar.StepsTaken());
    EXPECT_EQ(batched.SkippedCoefficients(), scalar.SkippedCoefficients());
    EXPECT_EQ(batched.SkippedImportance(), scalar.SkippedImportance());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(batched.Estimates()[q], scalar.Estimates()[q])
          << "query " << q << " after " << batched.StepsTaken();
    }
    EXPECT_EQ(batched.WorstCaseBound(k), scalar.WorstCaseBound(k));
    EXPECT_EQ(batched.ExpectedPenalty(f.schema.cell_count()),
              scalar.ExpectedPenalty(f.schema.cell_count()));
  }
  EXPECT_TRUE(scalar.Done());
  EXPECT_GT(batched.SkippedCoefficients(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, EngineOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kRandom,
                                           ProgressionOrder::kKeyOrder));

TEST(EngineSessionTest, StepBatchZeroAndOverrunClamp) {
  Fixture f;
  EvalSession session(f.plan, UnownedStore(*f.store));
  // n == 0 is a complete no-op: no cursor movement, no I/O.
  EXPECT_EQ(session.StepBatch(0).value(), 0u);
  EXPECT_EQ(session.StepsTaken(), 0u);
  EXPECT_EQ(session.io().retrievals, 0u);
  // n far beyond the remaining tail clamps to the tail.
  const size_t total = session.TotalSteps();
  ASSERT_GT(total, 3u);
  EXPECT_EQ(session.StepBatch(total - 3).value(), total - 3);
  EXPECT_EQ(session.StepBatch(total).value(), 3u);
  EXPECT_TRUE(session.Done());
  // A completed session accepts further batch calls as no-ops.
  EXPECT_EQ(session.StepBatch(64).value(), 0u);
  EXPECT_EQ(session.io().retrievals, total);
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST(EnginePlanTest, RandomPermutationMemoIsTransparent) {
  // The plan memoizes the last (seed, permutation) pair; eviction and
  // re-request must be invisible to callers.
  Fixture f;
  const std::vector<size_t> p42 = f.plan->RandomPermutation(42);
  const std::vector<size_t> p7 = f.plan->RandomPermutation(7);
  EXPECT_NE(p42, p7);
  EXPECT_EQ(f.plan->RandomPermutation(7), p7);    // served from the memo
  EXPECT_EQ(f.plan->RandomPermutation(42), p42);  // recomputed after evict
}

TEST(EnginePlanTest, PermutationsAreTruePermutations) {
  Fixture f;
  for (ProgressionOrder order :
       {ProgressionOrder::kBiggestB, ProgressionOrder::kRoundRobin,
        ProgressionOrder::kKeyOrder}) {
    std::span<const size_t> perm = f.plan->Permutation(order);
    ASSERT_EQ(perm.size(), f.list->size());
    std::vector<bool> seen(perm.size(), false);
    for (size_t idx : perm) {
      ASSERT_LT(idx, seen.size());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  std::vector<size_t> random = f.plan->RandomPermutation(99);
  EXPECT_EQ(random.size(), f.list->size());
  EXPECT_EQ(random, f.plan->RandomPermutation(99));
  EXPECT_NE(random, f.plan->RandomPermutation(100));
}

TEST(EnginePlanTest, BiggestBPermutationIsDecreasingImportance) {
  Fixture f;
  std::span<const size_t> perm =
      f.plan->Permutation(ProgressionOrder::kBiggestB);
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_GE(f.plan->importance(perm[i - 1]), f.plan->importance(perm[i]));
  }
}

TEST(EngineSessionTest, KeyOrderRunToExactMatchesReferenceRunToCompletion) {
  // Exact shared evaluation is a key-order session run to the end; the
  // reference walks the same entries in the same FetchBatch chunks.
  Fixture f;
  ProgressiveEvaluator reference(f.list.get(), f.sse.get(), f.store.get(),
                                 ProgressionOrder::kKeyOrder);
  reference.RunToCompletion();
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(f.plan, UnownedStore(*f.store), opts);
  ASSERT_TRUE(session.RunToExact().ok());
  ASSERT_EQ(session.Estimates().size(), reference.Estimates().size());
  for (size_t q = 0; q < reference.Estimates().size(); ++q) {
    EXPECT_EQ(session.Estimates()[q], reference.Estimates()[q]);
  }
  EXPECT_EQ(session.io(), reference.io());
}

TEST(EngineSessionTest, PenaltyFreePlanRunsExactOnly) {
  // Exact-shared evaluation needs no penalty; importance-based APIs are
  // unavailable but kKeyOrder runs fine.
  Fixture f;
  auto plan = EvalPlan::FromMasterList(f.list, /*penalty=*/nullptr);
  EXPECT_FALSE(plan->HasImportance());
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(plan, UnownedStore(*f.store), opts);
  ASSERT_TRUE(session.RunToExact().ok());
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST(EngineSessionTest, BlockModeGoldenAgainstLegacyBlockEvaluator) {
  Fixture f;
  Backends backends(*f.store);
  auto block_of = [](uint64_t key) { return key / 8; };
  for (auto& [name, store] : backends.stores) {
    BlockProgressiveEvaluator legacy(f.list.get(), f.sse.get(), store.get(),
                                     block_of);
    EvalSession::Options opts;
    opts.block_of = block_of;
    EvalSession session(f.plan, UnownedStore(*store), opts);
    ASSERT_EQ(session.TotalBlocks(), legacy.TotalBlocks()) << name;
    while (!session.Done()) {
      EXPECT_EQ(session.NextBlockImportance(), legacy.NextBlockImportance())
          << name;
      EXPECT_EQ(session.StepBlock().value(), legacy.StepBlock()) << name;
      EXPECT_GE(session.ExpectedPenalty(f.schema.cell_count()), 0.0) << name;
      EXPECT_EQ(session.BlocksFetched(), legacy.BlocksFetched()) << name;
      EXPECT_EQ(session.CoefficientsFetched(), legacy.CoefficientsFetched())
          << name;
      for (size_t q = 0; q < f.batch.size(); ++q) {
        EXPECT_EQ(session.Estimates()[q], legacy.Estimates()[q])
            << name << " query " << q;
      }
    }
    EXPECT_TRUE(legacy.Done());
    EXPECT_EQ(session.io(), legacy.io()) << name;
    for (size_t i = 0; i < f.exact.size(); ++i) {
      EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                  1e-6 * (1.0 + std::abs(f.exact[i])));
    }
  }
}

TEST(EngineBoundedTest, GoldenAgainstLegacyBoundedWorkspace) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  for (uint64_t budget : {uint64_t{1}, uint64_t{64}, uint64_t{256},
                          uint64_t{1} << 40}) {
    BoundedWorkspaceResult legacy =
        EvaluateWithBoundedWorkspace(f.batch, strategy, *f.store, budget);
    BoundedRunResult engine =
        RunWithBoundedWorkspace(f.batch, strategy, *f.store, budget).value();
    ASSERT_EQ(engine.results.size(), legacy.results.size());
    for (size_t q = 0; q < legacy.results.size(); ++q) {
      EXPECT_EQ(engine.results[q], legacy.results[q]) << "budget " << budget;
    }
    EXPECT_EQ(engine.io.retrievals, legacy.retrievals) << "budget " << budget;
    EXPECT_EQ(engine.peak_workspace, legacy.peak_workspace);
    EXPECT_EQ(engine.num_groups, legacy.num_groups);
  }
}

TEST(EngineSessionTest, SessionOutlivesCreatingScope) {
  // The lifetime regression the shared_ptr ownership fixes: everything a
  // session needs — master list, penalty, store, plan — was created in a
  // scope that is gone by the time the session steps.
  Fixture f;
  std::vector<double> exact = f.exact;
  const size_t num_queries = f.batch.size();
  std::unique_ptr<EvalSession> session;
  {
    WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
    auto penalty = std::make_shared<SsePenalty>();
    Result<std::shared_ptr<const EvalPlan>> plan =
        EvalPlan::Build(f.batch, strategy, penalty);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::shared_ptr<CoefficientStore> store =
        strategy.BuildStore(f.rel.FrequencyDistribution());
    session = std::make_unique<EvalSession>(*plan, store);
    // penalty, plan, store, strategy all go out of scope here; the session
    // holds what it needs alive.
  }
  ASSERT_TRUE(session->RunToExact().ok());
  ASSERT_EQ(session->Estimates().size(), num_queries);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(session->Estimates()[i], exact[i],
                1e-6 * (1.0 + std::abs(exact[i])));
  }
}

TEST(EngineSessionTest, ConcurrentSessionsShareOnePlan) {
  // Two sessions over one plan progress independently.
  Fixture f;
  EvalSession a(f.plan, UnownedStore(*f.store));
  EvalSession b(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(a.StepMany(5).ok());
  EXPECT_EQ(a.StepsTaken(), 5u);
  EXPECT_EQ(b.StepsTaken(), 0u);
  ASSERT_TRUE(b.RunToExact().ok());
  EXPECT_FALSE(a.Done());
  EXPECT_TRUE(b.Done());
  EXPECT_EQ(a.io().retrievals, 5u);
  EXPECT_EQ(b.io().retrievals, f.list->size());
}

TEST(EnginePlanCacheTest, HitsReturnTheSamePlan) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  Result<std::shared_ptr<const EvalPlan>> first =
      cache.GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(first.ok());
  Result<std::shared_ptr<const EvalPlan>> second =
      cache.GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(EnginePlanCacheTest, PenaltyContentDeterminesTheKey) {
  // The key encodes the penalty's *content*: a second penalty object with
  // identical parameters ranks coefficients identically, so it shares the
  // cached plan; a penalty with different parameters (even the same type
  // and name) must miss.
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  auto same_content = std::make_shared<SsePenalty>();
  auto a = cache.GetOrBuild(f.batch, strategy, f.sse);
  auto b = cache.GetOrBuild(f.batch, strategy, same_content);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  const size_t s = f.batch.size();
  auto uniform =
      std::make_shared<WeightedSsePenalty>(std::vector<double>(s, 1.0));
  std::vector<double> skewed(s, 1.0);
  skewed[0] = 2.0;
  auto reweighted = std::make_shared<WeightedSsePenalty>(std::move(skewed));
  auto c = cache.GetOrBuild(f.batch, strategy, uniform);
  auto d = cache.GetOrBuild(f.batch, strategy, reweighted);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_NE(c.value().get(), d.value().get());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(EnginePlanCacheTest, BatchShapeChangesTheKey) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  QueryBatch other(f.schema);
  other.Add(RangeSumQuery::Count(Range::All(f.schema)));
  auto a = cache.GetOrBuild(f.batch, strategy, f.sse);
  auto b = cache.GetOrBuild(other, strategy, f.sse);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().get(), b.value().get());
}

TEST(EnginePlanCacheTest, EvictsLeastRecentlyUsed) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(2);
  QueryBatch b1(f.schema), b2(f.schema), b3(f.schema);
  b1.Add(RangeSumQuery::Count(Range::All(f.schema)));
  b2.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{0, 3}, {0, 3}}).value()));
  b3.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{4, 7}, {4, 7}}).value()));
  ASSERT_TRUE(cache.GetOrBuild(b1, strategy, f.sse).ok());
  ASSERT_TRUE(cache.GetOrBuild(b2, strategy, f.sse).ok());
  ASSERT_TRUE(cache.GetOrBuild(b3, strategy, f.sse).ok());  // evicts b1
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrBuild(b1, strategy, f.sse).ok());  // rebuild
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(EngineSessionTest, CachedPlanAnswersSameAsFreshPlan) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  Result<std::shared_ptr<const EvalPlan>> cached =
      PlanCache::Shared().GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(cached.ok());
  EvalSession from_cache(*cached, UnownedStore(*f.store));
  EvalSession fresh(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(from_cache.RunToExact().ok());
  ASSERT_TRUE(fresh.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_EQ(from_cache.Estimates()[q], fresh.Estimates()[q]);
  }
  EXPECT_EQ(from_cache.io(), fresh.io());
}

}  // namespace
}  // namespace wavebatch
