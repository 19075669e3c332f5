#include <cmath>

#include "baselines/compressed_view.h"
#include "baselines/online_aggregation.h"
#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

TEST(CompressedViewTest, KeepsExactlyTheLargestCoefficients) {
  HashStore store;
  store.Add(1, 5.0);
  store.Add(2, -10.0);
  store.Add(3, 1.0);
  store.Add(4, 7.0);
  auto compressed = CompressTopCoefficients(store, 2);
  EXPECT_EQ(compressed->NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(compressed->Peek(2), -10.0);
  EXPECT_DOUBLE_EQ(compressed->Peek(4), 7.0);
  EXPECT_DOUBLE_EQ(compressed->Peek(1), 0.0);
}

TEST(CompressedViewTest, KeepAllIsLossless) {
  HashStore store;
  for (uint64_t k = 0; k < 20; ++k) store.Add(k, static_cast<double>(k) - 10);
  auto compressed = CompressTopCoefficients(store, 100);
  EXPECT_EQ(compressed->NumNonZero(), store.NumNonZero());
  for (uint64_t k = 0; k < 20; ++k) {
    EXPECT_DOUBLE_EQ(compressed->Peek(k), store.Peek(k));
  }
}

TEST(CompressedViewTest, KeepZeroIsEmpty) {
  HashStore store;
  store.Add(1, 1.0);
  auto compressed = CompressTopCoefficients(store, 0);
  EXPECT_EQ(compressed->NumNonZero(), 0u);
}

TEST(CompressedViewTest, QueryErrorShrinksWithBudget) {
  // Larger synopses answer more accurately (on data with wavelet decay).
  Schema schema = Schema::Uniform(2, 32);
  Relation rel = MakeGaussianClustersRelation(schema, 3000, 3, 0.1, 5);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  auto full = strategy.BuildStore(rel.FrequencyDistribution());
  QueryBatch batch(schema);
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    uint32_t lo = static_cast<uint32_t>(rng.UniformInt(32));
    uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(32 - lo));
    batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, lo, hi)));
  }
  // Exact shared evaluation: a key-order session run to completion.
  auto plan = EvalPlan::Build(batch, strategy, /*penalty=*/nullptr).value();
  auto answers = [&](const CoefficientStore& store) {
    EvalSession::Options opts;
    opts.order = ProgressionOrder::kKeyOrder;
    EvalSession session(plan, UnownedStore(store), opts);
    EXPECT_TRUE(session.RunToExact().ok());
    return session.Estimates();
  };
  std::vector<double> exact = answers(*full);
  auto sse_of = [&](const CoefficientStore& store) {
    std::vector<double> res = answers(store);
    double acc = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      const double e = res[i] - exact[i];
      acc += e * e;
    }
    return acc;
  };
  auto tiny = CompressTopCoefficients(*full, 16);
  auto medium = CompressTopCoefficients(*full, 256);
  auto huge = CompressTopCoefficients(*full, full->NumNonZero());
  EXPECT_GE(sse_of(*tiny), sse_of(*medium));
  EXPECT_NEAR(sse_of(*huge), 0.0, 1e-6);
}

TEST(OnlineAggregationTest, ExactAfterFullScan) {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 500, 3);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 2, 9)));
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));
  OnlineAggregator agg(&batch, rel.num_tuples());
  for (const Tuple& t : rel.tuples()) agg.Observe(t);
  std::vector<double> expected = batch.BruteForce(rel);
  std::vector<double> got = agg.Estimates();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-9);
  }
  EXPECT_EQ(agg.tuples_seen(), rel.num_tuples());
}

TEST(OnlineAggregationTest, ZeroBeforeAnyObservation) {
  Schema schema = Schema::Uniform(1, 8);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema)));
  OnlineAggregator agg(&batch, 100);
  EXPECT_EQ(agg.Estimates()[0], 0.0);
}

TEST(OnlineAggregationTest, PrefixEstimateIsApproximatelyUnbiased) {
  // Over many random datasets, the half-scan COUNT estimate averages to
  // the true count.
  Schema schema = Schema::Uniform(1, 16);
  Range half = Range::All(schema).Restrict(0, 0, 7);
  double mean_estimate = 0.0;
  const int kTrials = 60;
  const uint64_t kTuples = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    Relation rel = MakeUniformRelation(schema, kTuples, 100 + trial);
    QueryBatch batch(schema);
    batch.Add(RangeSumQuery::Count(half));
    OnlineAggregator agg(&batch, kTuples);
    for (uint64_t i = 0; i < kTuples / 2; ++i) agg.Observe(rel.tuple(i));
    mean_estimate += agg.Estimates()[0];
  }
  mean_estimate /= kTrials;
  // True expected count: half the domain => ~200.
  EXPECT_NEAR(mean_estimate, 200.0, 10.0);
}

TEST(OnlineAggregationTest, ScalingUsesTotalCardinality) {
  Schema schema = Schema::Uniform(1, 4);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema)));
  OnlineAggregator agg(&batch, 1000);
  agg.Observe({0});
  agg.Observe({1});
  // 2 of 2 observed tuples match; scaled to the full relation.
  EXPECT_DOUBLE_EQ(agg.Estimates()[0], 1000.0);
}

}  // namespace
}  // namespace wavebatch
