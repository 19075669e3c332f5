// End-to-end reproduction of the paper's evaluation pipeline at test scale:
// synthetic temperature data → wavelet view → 64-range partition batch →
// exact shared evaluation, progressive Batch-Biggest-B, and the
// penalty-choice effect (Observations 1–3 in miniature).

#include <cmath>
#include <memory>

#include "data/generators.h"
#include "data/workloads.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/laplacian.h"
#include "penalty/sse.h"
#include "query/derived.h"
#include "strategy/prefix_sum_strategy.h"
#include "strategy/wavelet_strategy.h"

namespace wavebatch {
namespace {

// ι_p of master-list entry i: p applied to its column of query
// coefficients. `column` is an all-zero scratch of num_queries() slots and
// is left all-zero again.
double EntryImportance(const MasterList& list, size_t i,
                       const PenaltyFunction& p, std::vector<double>& column) {
  const std::vector<uint64_t>& offsets = list.uses_offsets();
  for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
    column[list.uses_query()[r]] = list.uses_coeff()[r];
  }
  const double importance = p.Apply(column);
  for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
    column[list.uses_query()[r]] = 0.0;
  }
  return importance;
}

// Exact shared evaluation: a key-order session over a penalty-free plan,
// run to completion (each needed coefficient fetched once).
std::vector<double> SharedExact(std::shared_ptr<const MasterList> list,
                                std::shared_ptr<const CoefficientStore> store) {
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(EvalPlan::FromMasterList(std::move(list), nullptr),
                      std::move(store), opts);
  EXPECT_TRUE(session.RunToExact().ok());
  return session.Estimates();
}

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TemperatureDatasetOptions options;
    options.lat_size = 16;
    options.lon_size = 16;
    options.alt_size = 4;
    options.time_size = 8;
    options.temp_size = 16;
    options.num_records = 30000;
    rel_ = new Relation(MakeTemperatureDataset(options));

    const std::vector<size_t> parts = {8, 8, 1, 1, 1};
    workload_ = new PartitionWorkload(MakePartitionWorkload(
        rel_->schema(), parts, CellAggregate::kSum, kTemp, 1234));

    strategy_ = new WaveletStrategy(rel_->schema(), WaveletKind::kDb4);
    store_ = strategy_->BuildStore(rel_->FrequencyDistribution());
    list_ = std::make_shared<const MasterList>(
        MasterList::Build(workload_->batch, *strategy_).value());
    exact_ = new std::vector<double>(workload_->batch.BruteForce(*rel_));
  }

  static void TearDownTestSuite() {
    delete exact_;
    list_.reset();
    store_.reset();
    delete strategy_;
    delete workload_;
    delete rel_;
  }

  static Relation* rel_;
  static PartitionWorkload* workload_;
  static WaveletStrategy* strategy_;
  static std::shared_ptr<const CoefficientStore> store_;
  static std::shared_ptr<const MasterList> list_;
  static std::vector<double>* exact_;

  /// A biggest-B session over the suite's master list, ordered by
  /// `penalty`'s importances.
  static EvalSession Session(std::shared_ptr<const PenaltyFunction> penalty) {
    return EvalSession(EvalPlan::FromMasterList(list_, std::move(penalty)),
                       store_);
  }
};

Relation* IntegrationTest::rel_ = nullptr;
PartitionWorkload* IntegrationTest::workload_ = nullptr;
WaveletStrategy* IntegrationTest::strategy_ = nullptr;
std::shared_ptr<const CoefficientStore> IntegrationTest::store_;
std::shared_ptr<const MasterList> IntegrationTest::list_;
std::vector<double>* IntegrationTest::exact_ = nullptr;

TEST_F(IntegrationTest, SharedExactMatchesBruteForce) {
  std::vector<double> shared = SharedExact(list_, store_);
  ASSERT_EQ(shared.size(), exact_->size());
  for (size_t i = 0; i < exact_->size(); ++i) {
    EXPECT_NEAR(shared[i], (*exact_)[i],
                1e-6 * (1.0 + std::abs((*exact_)[i])));
  }
}

TEST_F(IntegrationTest, IoSharingIsSubstantial) {
  // Observation 1's shape: the shared cost (master-list size) is several
  // times smaller than the naive per-query cost.
  const double sharing = static_cast<double>(list_->TotalQueryCoefficients()) /
                         static_cast<double>(list_->size());
  EXPECT_GT(sharing, 2.0);
  EXPECT_GE(list_->MaxSharing(), 4u);
}

TEST_F(IntegrationTest, ProgressiveMreDecaysByOrdersOfMagnitude) {
  // Observation 2's shape at test scale: the mean relative error collapses
  // well before the master list is exhausted. (The paper's "<1% after one
  // coefficient per query" headline depends on the paper-scale domain and
  // data density; bench_fig5_mre reproduces it at full scale.)
  EvalSession ev = Session(std::make_shared<SsePenalty>());
  auto mre = [&] {
    double sum_rel = 0.0;
    size_t counted = 0;
    for (size_t i = 0; i < exact_->size(); ++i) {
      if ((*exact_)[i] == 0.0) continue;
      sum_rel += std::abs(ev.Estimates()[i] - (*exact_)[i]) /
                 std::abs((*exact_)[i]);
      ++counted;
    }
    return counted ? sum_rel / counted : 0.0;
  };
  ASSERT_TRUE(ev.StepMany(16).ok());
  const double early = mre();
  ASSERT_TRUE(ev.StepMany(list_->size() / 2 - ev.StepsTaken()).ok());
  const double mid = mre();
  ASSERT_TRUE(ev.RunToExact().ok());
  const double final = mre();
  EXPECT_LT(mid, early / 3.0);
  EXPECT_LT(final, 1e-9);
}

TEST_F(IntegrationTest, CursoredPenaltySteersPrecisionToCursor) {
  // Observation 3 (Figures 6–7): each progression minimizes its own
  // penalty's *guaranteed* risk (remaining importance, Theorems 1–2) at
  // every budget. The realized per-dataset penalty follows the same
  // pattern at late budgets (asserted here with slack); at early budgets
  // it can transiently invert because importance is data-independent —
  // bench_fig6_7_penalties traces the full curves.
  auto sse = std::make_shared<SsePenalty>();
  std::vector<size_t> cursor;
  for (size_t i = 0; i < 8; ++i) cursor.push_back(i);  // 8 neighboring cells
  auto cursored = std::make_shared<WeightedSsePenalty>(
      CursoredSsePenalty(workload_->batch.size(), cursor, 10.0));

  EvalSession ev_sse = Session(sse);
  EvalSession ev_cur = Session(cursored);
  std::vector<bool> used_sse(list_->size(), false);
  std::vector<bool> used_cur(list_->size(), false);
  auto remaining = [&](const PenaltyFunction& p,
                       const std::vector<bool>& used) {
    std::vector<double> column(workload_->batch.size(), 0.0);
    double total = 0.0;
    for (size_t i = 0; i < list_->size(); ++i) {
      if (used[i]) continue;
      total += EntryImportance(*list_, i, p, column);
    }
    return total;
  };
  for (double frac : {0.125, 0.5}) {
    const size_t budget = static_cast<size_t>(frac * list_->size());
    while (ev_sse.StepsTaken() < budget) used_sse[ev_sse.Step().value()] = true;
    while (ev_cur.StepsTaken() < budget) used_cur[ev_cur.Step().value()] = true;
    // Guaranteed-risk dominance under each progression's own penalty.
    EXPECT_LE(remaining(*cursored, used_cur),
              remaining(*cursored, used_sse) + 1e-9);
    EXPECT_LE(remaining(*sse, used_sse), remaining(*sse, used_cur) + 1e-9);
  }
  // Both progressions land on the exact results.
  ASSERT_TRUE(ev_sse.RunToExact().ok());
  ASSERT_TRUE(ev_cur.RunToExact().ok());
  for (size_t i = 0; i < exact_->size(); ++i) {
    EXPECT_NEAR(ev_cur.Estimates()[i], (*exact_)[i],
                1e-6 * (1.0 + std::abs((*exact_)[i])));
  }
}

TEST_F(IntegrationTest, PrefixSumStrategyAgreesAndIsCheapPerQuery) {
  PrefixSumStrategy ps(rel_->schema(),
                       PrefixSumStrategy::CollectMonomials(workload_->batch));
  Result<MasterList> ps_list = MasterList::Build(workload_->batch, ps);
  ASSERT_TRUE(ps_list.ok()) << ps_list.status();
  std::vector<double> shared =
      SharedExact(std::make_shared<const MasterList>(*ps_list),
                  ps.BuildStore(rel_->FrequencyDistribution()));
  for (size_t i = 0; i < exact_->size(); ++i) {
    EXPECT_NEAR(shared[i], (*exact_)[i],
                1e-6 * (1.0 + std::abs((*exact_)[i])));
  }
  // Prefix sums: ≤ 2^d corners per query, and grid sharing compresses the
  // union well below the naive total.
  EXPECT_LE(ps_list->TotalQueryCoefficients(),
            (uint64_t{1} << rel_->schema().num_dims()) *
                workload_->batch.size());
  EXPECT_LT(ps_list->size(), ps_list->TotalQueryCoefficients());
}

TEST_F(IntegrationTest, LaplacianOrderOptimizesGuaranteedLaplacianRisk) {
  // P3: the Laplacian-weighted biggest-B progression minimizes the
  // *guaranteed* Laplacian risk — both the Theorem 2 expected penalty
  // (sum of unused importances) and the Theorem 1 worst-case bound — at
  // every matched budget, compared with the SSE-ordered progression.
  // (On a single smooth dataset the realized Laplacian error need not be
  // smaller — the theorems are worst-case/average statements — which
  // bench_ablation_orders quantifies empirically.)
  auto lap = std::make_shared<LaplacianPenalty>(
      LaplacianPenalty::ForGrid(workload_->partition));
  EvalSession ev_sse = Session(std::make_shared<SsePenalty>());
  EvalSession ev_lap = Session(lap);
  // Remaining Laplacian importance for a progression's fetched set.
  auto remaining_lap = [&](const std::vector<bool>& fetched) {
    double total = 0.0;
    std::vector<double> column(workload_->batch.size(), 0.0);
    for (size_t i = 0; i < list_->size(); ++i) {
      if (fetched[i]) continue;
      total += EntryImportance(*list_, i, *lap, column);
    }
    return total;
  };
  std::vector<bool> fetched_sse(list_->size(), false);
  std::vector<bool> fetched_lap(list_->size(), false);
  const size_t budget = list_->size() / 8;
  for (size_t b = 0; b < budget; ++b) {
    fetched_sse[ev_sse.Step().value()] = true;
    fetched_lap[ev_lap.Step().value()] = true;
  }
  EXPECT_LE(remaining_lap(fetched_lap), remaining_lap(fetched_sse) + 1e-9);
  // Worst-case bound comparison (Theorem 1 with the Laplacian penalty).
  double max_unused_sse = 0.0, max_unused_lap = 0.0;
  {
    std::vector<double> column(workload_->batch.size(), 0.0);
    for (size_t i = 0; i < list_->size(); ++i) {
      const double imp = EntryImportance(*list_, i, *lap, column);
      if (!fetched_sse[i]) max_unused_sse = std::max(max_unused_sse, imp);
      if (!fetched_lap[i]) max_unused_lap = std::max(max_unused_lap, imp);
    }
  }
  EXPECT_LE(max_unused_lap, max_unused_sse + 1e-9);
}

TEST_F(IntegrationTest, DerivedAveragePerCellFromSharedBatch) {
  // AVERAGE temperature per cell via planned COUNT+SUM queries sharing one
  // master list.
  QueryBatch stats_batch(rel_->schema());
  std::vector<AverageHandle> handles;
  for (size_t c = 0; c < 8; ++c) {
    handles.push_back(
        PlanAverage(stats_batch, workload_->partition.cell(c), kTemp));
  }
  Result<MasterList> stats_list = MasterList::Build(stats_batch, *strategy_);
  ASSERT_TRUE(stats_list.ok());
  std::vector<double> res = SharedExact(
      std::make_shared<const MasterList>(*stats_list), store_);
  std::vector<double> brute = stats_batch.BruteForce(*rel_);
  for (const AverageHandle& h : handles) {
    const double got = FinishAverage(h, res);
    const double want = FinishAverage(h, brute);
    EXPECT_NEAR(got, want, 1e-5 * (1.0 + std::abs(want)));
  }
}

TEST_F(IntegrationTest, StreamingBuildAnswersSameAsDense) {
  // Smaller relation: the streaming (per-tuple insert) store answers the
  // same batch identically.
  TemperatureDatasetOptions options;
  options.lat_size = 8;
  options.lon_size = 8;
  options.alt_size = 2;
  options.time_size = 4;
  options.temp_size = 8;
  options.num_records = 500;
  Relation small = MakeTemperatureDataset(options);
  WaveletStrategy strategy(small.schema(), WaveletKind::kDb4);
  const std::vector<size_t> parts = {4, 4, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      small.schema(), parts, CellAggregate::kSum, kTemp, 5);
  std::vector<double> res = SharedExact(
      std::make_shared<const MasterList>(
          MasterList::Build(w.batch, strategy).value()),
      strategy.BuildStoreFromRelation(small));
  std::vector<double> brute = w.batch.BruteForce(small);
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_NEAR(res[i], brute[i], 1e-5 * (1.0 + std::abs(brute[i])));
  }
}

}  // namespace
}  // namespace wavebatch
