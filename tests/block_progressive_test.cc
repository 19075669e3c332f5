// Block-granularity Batch-Biggest-B: an EvalSession with Options::block_of
// set fetches whole blocks in decreasing total importance.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct BlockFixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  WaveletStrategy strategy{schema, WaveletKind::kHaar};
  std::shared_ptr<const CoefficientStore> store;
  std::shared_ptr<const MasterList> list;
  std::vector<double> expected;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;

  BlockFixture() : rel(MakeUniformRelation(schema, 500, 7)), batch(schema) {
    Rng rng(9);
    for (int i = 0; i < 10; ++i) {
      uint32_t lo = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(16 - lo));
      batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, lo, hi)));
    }
    store = strategy.BuildStore(rel.FrequencyDistribution());
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
    plan = EvalPlan::FromMasterList(list, sse);
    expected = batch.BruteForce(rel);
  }

  EvalSession Session(std::function<uint64_t(uint64_t)> block_of) const {
    EvalSession::Options opts;
    opts.block_of = std::move(block_of);
    return EvalSession(plan, store, opts);
  }
};

uint64_t BlockBy16(uint64_t key) { return key / 16; }

TEST(BlockProgressiveTest, CompletesToExactResults) {
  BlockFixture f;
  EvalSession ev = f.Session(BlockBy16);
  while (!ev.Done()) ASSERT_TRUE(ev.StepBlock().ok());
  EXPECT_EQ(ev.CoefficientsFetched(), f.list->size());
  for (size_t i = 0; i < f.expected.size(); ++i) {
    EXPECT_NEAR(ev.Estimates()[i], f.expected[i],
                1e-6 * (1.0 + std::abs(f.expected[i])));
  }
}

TEST(BlockProgressiveTest, BlockImportanceIsNonIncreasing) {
  BlockFixture f;
  EvalSession ev = f.Session(BlockBy16);
  double prev = ev.NextBlockImportance();
  while (!ev.Done()) {
    EXPECT_LE(ev.NextBlockImportance(), prev + 1e-12);
    prev = ev.NextBlockImportance();
    ASSERT_TRUE(ev.StepBlock().ok());
  }
  EXPECT_EQ(ev.NextBlockImportance(), 0.0);
}

TEST(BlockProgressiveTest, BlockCountMatchesDistinctBlocks) {
  BlockFixture f;
  std::set<uint64_t> distinct;
  for (size_t i = 0; i < f.list->size(); ++i) {
    distinct.insert(BlockBy16(f.list->keys()[i]));
  }
  EvalSession ev = f.Session(BlockBy16);
  EXPECT_EQ(ev.TotalBlocks(), distinct.size());
}

TEST(BlockProgressiveTest, StepToBlocksStopsAtBudgetAndCompletion) {
  BlockFixture f;
  EvalSession ev = f.Session(BlockBy16);
  ASSERT_TRUE(ev.StepToBlocks(3).ok());
  EXPECT_EQ(ev.BlocksFetched(), std::min<uint64_t>(3, ev.TotalBlocks()));
  ASSERT_TRUE(ev.StepToBlocks(1 << 20).ok());
  EXPECT_TRUE(ev.Done());
}

TEST(BlockProgressiveTest, GreedyMaximizesCapturedImportancePerBlockBudget) {
  // The chosen k blocks always have the maximum total importance of any k
  // blocks — the additive-importance optimality that makes sum-aggregation
  // the right block importance.
  BlockFixture f;
  // Recompute per-block importance independently.
  std::map<uint64_t, double> block_importance;
  std::vector<double> column(f.batch.size(), 0.0);
  const std::vector<uint64_t>& offsets = f.list->uses_offsets();
  for (size_t i = 0; i < f.list->size(); ++i) {
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      column[f.list->uses_query()[r]] = f.list->uses_coeff()[r];
    }
    block_importance[BlockBy16(f.list->keys()[i])] += f.sse->Apply(column);
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      column[f.list->uses_query()[r]] = 0.0;
    }
  }
  std::vector<double> sorted;
  for (const auto& [id, imp] : block_importance) sorted.push_back(imp);
  std::sort(sorted.rbegin(), sorted.rend());

  EvalSession ev = f.Session(BlockBy16);
  double captured = 0.0;
  size_t k = 0;
  while (!ev.Done()) {
    const double next = ev.NextBlockImportance();
    ASSERT_TRUE(ev.StepBlock().ok());
    captured += next;
    ++k;
    double best_possible = 0.0;
    for (size_t i = 0; i < k; ++i) best_possible += sorted[i];
    EXPECT_NEAR(captured, best_possible, 1e-9);
  }
}

TEST(BlockProgressiveTest, SingleCoefficientBlocksMatchPlainBiggestB) {
  // With one coefficient per block, the block progression degenerates to
  // the plain biggest-B progression (same estimates at every step count).
  BlockFixture f;
  EvalSession by_block = f.Session([](uint64_t key) { return key; });
  EvalSession by_coeff(f.plan, f.store);
  while (!by_block.Done()) {
    ASSERT_TRUE(by_block.StepBlock().ok());
    ASSERT_TRUE(by_coeff.Step().ok());
    // Importance ties can be ordered differently; compare the penalty of
    // the error vectors rather than raw estimates.
    std::vector<double> err_block(f.expected.size());
    std::vector<double> err_coeff(f.expected.size());
    for (size_t i = 0; i < f.expected.size(); ++i) {
      err_block[i] = by_block.Estimates()[i] - f.expected[i];
      err_coeff[i] = by_coeff.Estimates()[i] - f.expected[i];
    }
    // Equal-importance prefixes: identical guaranteed risk; realized SSE
    // may differ only through tie-order, so compare loosely.
    EXPECT_NEAR(by_block.NextBlockImportance(), by_coeff.NextImportance(),
                1e-9);
  }
}

}  // namespace
}  // namespace wavebatch
