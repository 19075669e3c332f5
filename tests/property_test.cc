// Property-style sweeps over the full pipeline: for every (filter, schema
// shape, polynomial degree) combination, the wavelet strategy must answer
// random range-sums exactly, with query-vector sparsity respecting the
// paper's O((4δ+2)^d log^d N) bound, and progressive evaluation must obey
// the Theorem 1 bound on arbitrary random data.

#include <cmath>
#include <memory>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/lp.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct PipelineParam {
  WaveletKind kind;
  size_t num_dims;
  uint32_t dim_size;
  uint32_t degree;  // per-variable degree of the query polynomial

  friend std::ostream& operator<<(std::ostream& os, const PipelineParam& p) {
    return os << WaveletFilter::Get(p.kind).name() << "_d" << p.num_dims
              << "_n" << p.dim_size << "_deg" << p.degree;
  }
};

class PipelinePropertyTest : public ::testing::TestWithParam<PipelineParam> {
 protected:
  static RangeSumQuery RandomQuery(const Schema& schema, uint32_t degree,
                                   Rng& rng) {
    std::vector<Interval> ivs;
    for (size_t i = 0; i < schema.num_dims(); ++i) {
      const uint32_t n = schema.dim(i).size;
      const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(n));
      const uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(n - lo));
      ivs.push_back({lo, hi});
    }
    Range range = Range::Create(schema, ivs).value();
    if (degree == 0) return RangeSumQuery::Count(range);
    const size_t dim = rng.UniformInt(schema.num_dims());
    return RangeSumQuery::SumPower(range, dim, degree);
  }
};

TEST_P(PipelinePropertyTest, ExactOnRandomData) {
  const PipelineParam& p = GetParam();
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  Relation rel = MakeUniformRelation(
      schema, std::min<uint64_t>(400, schema.cell_count() * 4), 97);
  WaveletStrategy strategy(schema, p.kind);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  Rng rng(1000 + p.num_dims);
  for (int t = 0; t < 10; ++t) {
    RangeSumQuery q = RandomQuery(schema, p.degree, rng);
    Result<SparseVec> qc = strategy.TransformQuery(q);
    ASSERT_TRUE(qc.ok());
    double acc = 0.0;
    for (const SparseEntry& e : *qc) acc += e.value * store->Peek(e.key);
    const double expected = q.BruteForce(rel);
    EXPECT_NEAR(acc, expected, 1e-6 * (1.0 + std::abs(expected)))
        << q.range().ToString() << " " << q.poly().ToString();
  }
}

TEST_P(PipelinePropertyTest, SparsityBoundWhenFilterSufficient) {
  const PipelineParam& p = GetParam();
  const WaveletFilter& filter = WaveletFilter::Get(p.kind);
  if (filter.max_degree() < p.degree) return;  // bound only claimed here
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  WaveletStrategy strategy(schema, p.kind);
  Rng rng(2000 + p.num_dims);
  const double log_n = std::log2(static_cast<double>(p.dim_size));
  // Per-dimension bound: 2 edges × L wavelets per level, plus slack for the
  // coarse levels (≤ 2L).
  const double per_dim = 2.0 * filter.length() * log_n + 2.0 * filter.length();
  const double bound = std::pow(per_dim, static_cast<double>(p.num_dims));
  for (int t = 0; t < 10; ++t) {
    RangeSumQuery q = RandomQuery(schema, p.degree, rng);
    Result<SparseVec> qc = strategy.TransformQuery(q);
    ASSERT_TRUE(qc.ok());
    EXPECT_LE(static_cast<double>(qc->size()), bound)
        << q.range().ToString();
  }
}

TEST_P(PipelinePropertyTest, Theorem1BoundHoldsOnArbitraryData) {
  const PipelineParam& p = GetParam();
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  // Skewed data stresses the bound more than uniform.
  Relation rel = MakeZipfRelation(
      schema, std::min<uint64_t>(300, schema.cell_count() * 4), 1.1,
      3000 + p.num_dims);
  WaveletStrategy strategy(schema, p.kind);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  QueryBatch batch(schema);
  Rng rng(4000 + p.num_dims);
  for (int i = 0; i < 6; ++i) {
    batch.Add(RandomQuery(schema, p.degree, rng));
  }
  auto sse = std::make_shared<SsePenalty>();
  Result<std::shared_ptr<const EvalPlan>> plan =
      EvalPlan::Build(batch, strategy, sse);
  ASSERT_TRUE(plan.ok());
  std::vector<double> exact = batch.BruteForce(rel);
  const double k = store->SumAbs();
  EvalSession ev(*plan, std::move(store));
  while (!ev.Done()) {
    std::vector<double> err(exact.size());
    for (size_t i = 0; i < err.size(); ++i) {
      err[i] = ev.Estimates()[i] - exact[i];
    }
    EXPECT_LE(sse->Apply(err), ev.WorstCaseBound(k) * (1.0 + 1e-6) + 1e-4);
    ASSERT_TRUE(ev.StepMany((*plan)->size() / 7 + 1).ok());
  }
}

TEST_P(PipelinePropertyTest, LinfWorstCaseBoundAlsoHolds) {
  // Corollary 1 with the max norm (homogeneity degree 1).
  const PipelineParam& p = GetParam();
  if (p.degree > 0) return;  // one norm sweep is enough; keep runtime down
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  Relation rel = MakeUniformRelation(
      schema, std::min<uint64_t>(200, schema.cell_count() * 2), 53);
  WaveletStrategy strategy(schema, p.kind);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  QueryBatch batch(schema);
  Rng rng(5000);
  for (int i = 0; i < 5; ++i) batch.Add(RandomQuery(schema, 0, rng));
  auto linf = std::make_shared<LpPenalty>(LpPenalty::Infinity());
  Result<std::shared_ptr<const EvalPlan>> plan =
      EvalPlan::Build(batch, strategy, linf);
  ASSERT_TRUE(plan.ok());
  std::vector<double> exact = batch.BruteForce(rel);
  const double k = store->SumAbs();
  EvalSession ev(*plan, std::move(store));
  while (!ev.Done()) {
    std::vector<double> err(exact.size());
    for (size_t i = 0; i < err.size(); ++i) {
      err[i] = ev.Estimates()[i] - exact[i];
    }
    EXPECT_LE(linf->Apply(err), ev.WorstCaseBound(k) * (1.0 + 1e-6) + 1e-6);
    ASSERT_TRUE(ev.StepMany((*plan)->size() / 5 + 1).ok());
  }
}

std::vector<PipelineParam> MakeParams() {
  std::vector<PipelineParam> params;
  for (WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDb4,
                           WaveletKind::kDb6, WaveletKind::kDb8}) {
    const uint32_t max_deg = WaveletFilter::Get(kind).max_degree();
    for (size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
      const uint32_t size = d == 3 ? 8 : 16;
      for (uint32_t degree = 0; degree <= std::min(max_deg, 2u); ++degree) {
        params.push_back({kind, d, size, degree});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelinePropertyTest,
                         ::testing::ValuesIn(MakeParams()),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << info.param;
                           return os.str();
                         });

}  // namespace
}  // namespace wavebatch
