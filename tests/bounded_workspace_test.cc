// Exact batch evaluation through engine/bounded.h: a budget of one
// coefficient is the naive per-query plan, an unbounded budget the fully
// shared one, and everything in between trades retrievals for workspace.

#include "engine/bounded.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "strategy/prefix_sum_strategy.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

constexpr uint64_t kNaive = 1;
constexpr uint64_t kShared = uint64_t{1} << 40;

struct WorkspaceFixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::unique_ptr<LinearStrategy> strategy;
  std::unique_ptr<CoefficientStore> store;
  MasterList list;
  std::vector<double> expected;

  explicit WorkspaceFixture(WaveletKind kind = WaveletKind::kHaar)
      : WorkspaceFixture(std::make_unique<WaveletStrategy>(
            Schema::Uniform(2, 16), kind)) {}

  explicit WorkspaceFixture(std::unique_ptr<LinearStrategy> s)
      : rel(MakeUniformRelation(schema, 400, 3)),
        batch(schema),
        strategy(std::move(s)) {
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    store = strategy->BuildStore(rel.FrequencyDistribution());
    list = MasterList::Build(batch, *strategy).value();
    expected = batch.BruteForce(rel);
  }

  BoundedRunResult Run(uint64_t budget) const {
    return RunWithBoundedWorkspace(batch, *strategy, *store, budget).value();
  }
};

TEST(BoundedWorkspaceTest, ExactAtEveryBudget) {
  WorkspaceFixture f;
  for (uint64_t budget : {kNaive, uint64_t{50}, uint64_t{200},
                          uint64_t{100000}, kShared}) {
    BoundedRunResult res = f.Run(budget);
    ASSERT_EQ(res.results.size(), f.expected.size());
    for (size_t i = 0; i < f.expected.size(); ++i) {
      EXPECT_NEAR(res.results[i], f.expected[i],
                  1e-6 * (1.0 + std::abs(f.expected[i])))
          << "budget " << budget;
    }
  }
}

TEST(BoundedWorkspaceTest, UnboundedBudgetMatchesSharedCost) {
  WorkspaceFixture f;
  BoundedRunResult res = f.Run(kShared);
  EXPECT_EQ(res.num_groups, 1u);
  EXPECT_EQ(res.io.retrievals, f.list.size());
  EXPECT_EQ(res.peak_workspace, f.list.TotalQueryCoefficients());
}

TEST(BoundedWorkspaceTest, MinimalBudgetMatchesNaiveCost) {
  WorkspaceFixture f;
  // Budget 1: every query exceeds it, so each gets its own group and every
  // coefficient a query uses is fetched once per query.
  BoundedRunResult res = f.Run(kNaive);
  EXPECT_EQ(res.num_groups, f.batch.size());
  EXPECT_EQ(res.io.retrievals, f.list.TotalQueryCoefficients());
}

TEST(BoundedWorkspaceTest, IntermediateBudgetsInterpolate) {
  WorkspaceFixture f;
  const uint64_t mid_budget = f.list.TotalQueryCoefficients() / 4;
  BoundedRunResult res = f.Run(mid_budget);
  EXPECT_GT(res.num_groups, 1u);
  EXPECT_LT(res.num_groups, f.batch.size());
  EXPECT_GE(res.io.retrievals, f.list.size());
  EXPECT_LE(res.io.retrievals, f.list.TotalQueryCoefficients());
  EXPECT_LE(res.peak_workspace, mid_budget);
}

TEST(BoundedWorkspaceTest, PeakWorkspaceRespectsBudgetWhenQueriesFit) {
  WorkspaceFixture f;
  uint64_t max_single = 0;
  for (const auto& nnz : f.list.PerQueryCoefficients()) {
    max_single = std::max(max_single, nnz);
  }
  const uint64_t budget = max_single * 2;
  EXPECT_LE(f.Run(budget).peak_workspace, budget);
}

TEST(ExactTest, SharingNeverIncreasesIo) {
  // Db4's wider supports make neighboring ranges overlap, so sharing is
  // strictly cheaper here.
  WorkspaceFixture f(WaveletKind::kDb4);
  const uint64_t naive = f.Run(kNaive).io.retrievals;
  const uint64_t shared = f.Run(kShared).io.retrievals;
  EXPECT_LE(shared, naive);
  EXPECT_LT(shared, naive);  // overlap guaranteed here
}

TEST(ExactTest, WorksWithPrefixSums) {
  WorkspaceFixture f(std::make_unique<PrefixSumStrategy>(
      Schema::Uniform(2, 16), std::vector<std::vector<uint32_t>>{{0, 0}}));
  BoundedRunResult shared = f.Run(kShared);
  for (size_t i = 0; i < f.expected.size(); ++i) {
    EXPECT_NEAR(shared.results[i], f.expected[i], 1e-9);
  }
  // At most 4 corners per 2-D query.
  EXPECT_LE(shared.io.retrievals, 4u * f.batch.size());
}

TEST(ExactTest, EmptyBatch) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  auto store = strategy.BuildStore(DenseCube(schema));
  for (uint64_t budget : {kNaive, kShared}) {
    BoundedRunResult r =
        RunWithBoundedWorkspace(QueryBatch(schema), strategy, *store, budget)
            .value();
    EXPECT_TRUE(r.results.empty());
    EXPECT_EQ(r.io.retrievals, 0u);
    EXPECT_EQ(r.num_groups, 0u);
  }
}

}  // namespace
}  // namespace wavebatch
