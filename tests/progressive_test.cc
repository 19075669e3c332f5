// Batch-Biggest-B (Figure 1 of the paper) as the engine runs it: an
// EvalSession over an EvalPlan, under every progression order.

#include <cmath>
#include <iterator>
#include <memory>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::shared_ptr<const CoefficientStore> store;
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

  EvalSession Session(ProgressionOrder order = ProgressionOrder::kBiggestB,
                      uint64_t seed = 17) const {
    EvalSession::Options opts;
    opts.order = order;
    opts.seed = seed;
    return EvalSession(plan, store, opts);
  }
};

class ProgressiveOrderTest : public ::testing::TestWithParam<ProgressionOrder> {
};

TEST_P(ProgressiveOrderTest, CompletesToExactResults) {
  Fixture f;
  EvalSession ev = f.Session(GetParam());
  EXPECT_EQ(ev.StepsTaken(), 0u);
  ASSERT_TRUE(ev.RunToExact().ok());
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepsTaken(), f.list->size());
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(ev.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST_P(ProgressiveOrderTest, EveryCoefficientFetchedExactlyOnce) {
  Fixture f;
  EvalSession ev = f.Session(GetParam());
  ASSERT_TRUE(ev.RunToExact().ok());
  EXPECT_EQ(ev.io().retrievals, f.list->size());
}

TEST_P(ProgressiveOrderTest, NextImportanceZeroWhenDone) {
  Fixture f;
  EvalSession ev = f.Session(GetParam());
  ASSERT_TRUE(ev.RunToExact().ok());
  EXPECT_EQ(ev.NextImportance(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ProgressiveOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kRandom,
                                           ProgressionOrder::kKeyOrder));

TEST(ProgressiveTest, BiggestBRetrievesInDecreasingImportance) {
  Fixture f;
  EvalSession ev = f.Session();
  double prev = ev.NextImportance();
  while (!ev.Done()) {
    const double next = ev.NextImportance();
    EXPECT_LE(next, prev + 1e-12);
    prev = next;
    ASSERT_TRUE(ev.Step().ok());
  }
}

TEST(ProgressiveTest, StepReturnsConsumedEntry) {
  Fixture f;
  EvalSession ev = f.Session();
  const double top = ev.NextImportance();
  const size_t idx = ev.Step().value();
  EXPECT_DOUBLE_EQ(f.plan->importance(idx), top);
}

TEST(ProgressiveTest, StepManyStopsAtCompletion) {
  Fixture f;
  EvalSession ev = f.Session();
  ASSERT_TRUE(ev.StepMany(f.list->size() * 10).ok());
  EXPECT_TRUE(ev.Done());
}

TEST_P(ProgressiveOrderTest, StepManyOvershootMidRunStopsAtCompletion) {
  // n > TotalSteps() - StepsTaken() must finish cleanly, not over-step.
  Fixture f;
  EvalSession ev = f.Session(GetParam());
  ASSERT_TRUE(ev.StepMany(f.list->size() / 2).ok());
  const uint64_t taken = ev.StepsTaken();
  ASSERT_TRUE(ev.StepMany((f.list->size() - taken) + 1000).ok());
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepsTaken(), f.list->size());
  EXPECT_EQ(ev.io().retrievals, f.list->size());
}

TEST_P(ProgressiveOrderTest, StepBatchOvershootStopsAtCompletion) {
  Fixture f;
  EvalSession ev = f.Session(GetParam());
  EXPECT_EQ(ev.StepBatch(f.list->size() + 999).value(), f.list->size());
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepBatch(4).value(), 0u);  // no-op once done
}

TEST_P(ProgressiveOrderTest, StepBatchGoldenMatchesScalarSteps) {
  // StepBatch(n) must reproduce n scalar Step() calls exactly: estimates,
  // steps taken, retrieval counts, and both penalty trackers, at every
  // batch boundary, under every progression order.
  Fixture f;
  const double k = f.store->SumAbs();
  EvalSession scalar = f.Session(GetParam());
  EvalSession batched = f.Session(GetParam());
  const size_t batch_sizes[] = {1, 3, 7, 16, 64};
  size_t bi = 0;
  while (!batched.Done()) {
    const size_t n = batch_sizes[bi++ % std::size(batch_sizes)];
    const size_t taken = batched.StepBatch(n).value();
    for (size_t i = 0; i < taken; ++i) ASSERT_TRUE(scalar.Step().ok());
    ASSERT_EQ(batched.StepsTaken(), scalar.StepsTaken());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(batched.Estimates()[q], scalar.Estimates()[q])
          << "query " << q << " after " << batched.StepsTaken() << " steps";
    }
    EXPECT_EQ(batched.WorstCaseBound(k), scalar.WorstCaseBound(k));
    EXPECT_EQ(batched.ExpectedPenalty(f.schema.cell_count()),
              scalar.ExpectedPenalty(f.schema.cell_count()));
  }
  EXPECT_TRUE(scalar.Done());
  // Batched and scalar twins cost the same retrievals.
  EXPECT_EQ(scalar.io().retrievals, f.list->size());
  EXPECT_EQ(batched.io(), scalar.io());
}

TEST(ProgressiveTest, PartialEstimatesAreBTermApproximations) {
  // After B steps the estimate equals the inner product of the B-term
  // truncated query with the data (cross-check against manual truncation).
  Fixture f;
  EvalSession ev = f.Session();
  const size_t b = f.list->size() / 3;
  std::vector<size_t> used;
  for (size_t i = 0; i < b; ++i) used.push_back(ev.Step().value());
  std::vector<double> manual(f.batch.size(), 0.0);
  const std::vector<uint64_t>& offsets = f.list->uses_offsets();
  for (size_t idx : used) {
    const double data = f.store->Peek(f.list->keys()[idx]);
    for (uint64_t r = offsets[idx]; r < offsets[idx + 1]; ++r) {
      manual[f.list->uses_query()[r]] += f.list->uses_coeff()[r] * data;
    }
  }
  for (size_t q = 0; q < manual.size(); ++q) {
    EXPECT_NEAR(ev.Estimates()[q], manual[q], 1e-9);
  }
}

TEST(ProgressiveTest, WorstCaseBoundDominatesActualPenalty) {
  // Theorem 1: for the biggest-B progression, the SSE of the current
  // estimate never exceeds K²·ι(ξ′) where K = Σ|Δ̂|.
  Fixture f;
  const double k = f.store->SumAbs();
  EvalSession ev = f.Session();
  while (!ev.Done()) {
    std::vector<double> err(f.exact.size());
    for (size_t i = 0; i < err.size(); ++i) {
      err[i] = ev.Estimates()[i] - f.exact[i];
    }
    // Allow for the tiny coefficients the rewrite thresholds away.
    EXPECT_LE(f.sse->Apply(err), ev.WorstCaseBound(k) + 1e-5 * (1.0 + k * k));
    ASSERT_TRUE(ev.StepMany(7).ok());
  }
}

TEST(ProgressiveTest, ExpectedPenaltyDecreasesMonotonically) {
  Fixture f;
  EvalSession ev = f.Session();
  double prev = ev.ExpectedPenalty(f.schema.cell_count());
  while (!ev.Done()) {
    ASSERT_TRUE(ev.Step().ok());
    const double cur = ev.ExpectedPenalty(f.schema.cell_count());
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
  EXPECT_NEAR(prev, 0.0, 1e-9);
}

TEST(ProgressiveTest, RandomOrderIsSeedDeterministic) {
  // Same seed: the full progression (entry sequence and estimates) is
  // reproducible; a different seed permutes the list differently.
  Fixture f;
  EvalSession a = f.Session(ProgressionOrder::kRandom, 99);
  EvalSession b = f.Session(ProgressionOrder::kRandom, 99);
  EvalSession other = f.Session(ProgressionOrder::kRandom, 100);
  bool any_differs = false;
  while (!a.Done()) {
    const size_t entry = a.Step().value();
    EXPECT_EQ(entry, b.Step().value());
    any_differs |= entry != other.Step().value();
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(a.Estimates()[q], b.Estimates()[q]);
    }
  }
  EXPECT_TRUE(any_differs) << "seed should change the random order";
}

TEST(ProgressiveTest, ImportanceMatchesPenaltyOfCoefficientColumn) {
  // Definition 3: ι_p(ξ) = p(q̂₀[ξ], …, q̂_{s−1}[ξ]).
  Fixture f;
  const std::vector<uint64_t>& offsets = f.list->uses_offsets();
  for (size_t i = 0; i < f.list->size(); ++i) {
    double expected = 0.0;
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      expected += f.list->uses_coeff()[r] * f.list->uses_coeff()[r];
    }
    EXPECT_NEAR(f.plan->importance(i), expected, 1e-12);
  }
}

}  // namespace
}  // namespace wavebatch
