#include <cmath>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "strategy/identity_strategy.h"
#include "strategy/linear_strategy.h"
#include "strategy/prefix_sum_strategy.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"
#include "wavelet/lazy_query_transform.h"
#include "wavelet/query_transform.h"

namespace wavebatch {
namespace {

// Evaluates a query through a strategy: ⟨q_T, T·Δ⟩ by direct lookup.
double Evaluate(const LinearStrategy& strategy, const CoefficientStore& store,
                const RangeSumQuery& query) {
  Result<SparseVec> q = strategy.TransformQuery(query);
  EXPECT_TRUE(q.ok()) << q.status();
  double acc = 0.0;
  for (const SparseEntry& e : *q) acc += e.value * store.Peek(e.key);
  return acc;
}

Range RandomRange(const Schema& schema, Rng& rng) {
  std::vector<Interval> ivs;
  for (size_t i = 0; i < schema.num_dims(); ++i) {
    const uint32_t n = schema.dim(i).size;
    const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(n));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(n - lo));
    ivs.push_back({lo, hi});
  }
  Result<Range> r = Range::Create(schema, ivs);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

class WaveletStrategyTest : public ::testing::TestWithParam<WaveletKind> {};

TEST_P(WaveletStrategyTest, CountQueriesExact) {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 300, 7);
  DenseCube delta = rel.FrequencyDistribution();
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(delta);
  Rng rng(11);
  for (int t = 0; t < 25; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery q = RangeSumQuery::Count(range);
    EXPECT_NEAR(Evaluate(strategy, *store, q), q.BruteForce(rel),
                1e-6 * (1.0 + std::abs(q.BruteForce(rel))));
  }
}

TEST_P(WaveletStrategyTest, SumQueriesExactWhenFilterSufficient) {
  if (WaveletFilter::Get(GetParam()).max_degree() < 1) return;
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 300, 9);
  DenseCube delta = rel.FrequencyDistribution();
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(delta);
  Rng rng(13);
  for (int t = 0; t < 25; ++t) {
    Range range = RandomRange(schema, rng);
    for (size_t dim = 0; dim < 2; ++dim) {
      RangeSumQuery q = RangeSumQuery::Sum(range, dim);
      const double expected = q.BruteForce(rel);
      EXPECT_NEAR(Evaluate(strategy, *store, q), expected,
                  1e-6 * (1.0 + std::abs(expected)));
    }
  }
}

TEST_P(WaveletStrategyTest, HaarStillExactForHigherDegree) {
  // With too few vanishing moments the rewrite is dense but still exact.
  Schema schema = Schema::Uniform(2, 8);
  Relation rel = MakeUniformRelation(schema, 100, 21);
  DenseCube delta = rel.FrequencyDistribution();
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(delta);
  Range range = Range::All(schema).Restrict(0, 1, 6);
  RangeSumQuery q = RangeSumQuery::SumProduct(range, 0, 1);
  const double expected = q.BruteForce(rel);
  EXPECT_NEAR(Evaluate(strategy, *store, q), expected,
              1e-6 * (1.0 + std::abs(expected)));
}

TEST_P(WaveletStrategyTest, IncrementalInsertMatchesDenseBuild) {
  Schema schema = Schema::Uniform(3, 8);
  Relation rel = MakeUniformRelation(schema, 60, 33);
  WaveletStrategy strategy(schema, GetParam());
  auto dense_store = strategy.BuildStore(rel.FrequencyDistribution());
  auto streaming_store = strategy.BuildStoreFromRelation(rel);
  // Every coefficient with material magnitude agrees.
  for (uint64_t key = 0; key < schema.cell_count(); ++key) {
    EXPECT_NEAR(streaming_store->Peek(key), dense_store->Peek(key), 1e-8)
        << "key " << key;
  }
}

TEST_P(WaveletStrategyTest, InsertThenQueryReflectsUpdate) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, GetParam());
  Relation rel = MakeUniformRelation(schema, 100, 41);
  auto store = strategy.BuildStoreFromRelation(rel);
  Range range = Range::All(schema).Restrict(0, 2, 9).Restrict(1, 3, 12);
  RangeSumQuery count = RangeSumQuery::Count(range);
  const double before = Evaluate(strategy, *store, count);
  ASSERT_TRUE(strategy.InsertTuple(*store, {5, 5}, 1.0).ok());
  const double after = Evaluate(strategy, *store, count);
  EXPECT_NEAR(after, before + 1.0, 1e-6);
  // Deletion (negative count) restores.
  ASSERT_TRUE(strategy.InsertTuple(*store, {5, 5}, -1.0).ok());
  EXPECT_NEAR(Evaluate(strategy, *store, count), before, 1e-6);
}

TEST_P(WaveletStrategyTest, RejectsOutOfDomainTuple) {
  Schema schema = Schema::Uniform(2, 8);
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(DenseCube(schema));
  EXPECT_FALSE(strategy.InsertTuple(*store, {8, 0}, 1.0).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFilters, WaveletStrategyTest,
                         ::testing::Values(WaveletKind::kHaar,
                                           WaveletKind::kDb4,
                                           WaveletKind::kDb6,
                                           WaveletKind::kDb8));

TEST(WaveletStrategySparsity, QueryNnzWithinPaperBound) {
  // O((4δ+2)^d log^d N): check the explicit per-dimension product bound
  // Π_i (2·L·log2(N_i) + 2·L).
  Schema schema = Schema::Uniform(3, 32);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Rng rng(55);
  for (int t = 0; t < 10; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery q = RangeSumQuery::Sum(range, 1);
    Result<SparseVec> coeffs = strategy.TransformQuery(q);
    ASSERT_TRUE(coeffs.ok());
    const double per_dim = 2.0 * 4 * 5 + 2.0 * 4;
    EXPECT_LE(coeffs->size(), per_dim * per_dim * per_dim);
  }
}

TEST(WaveletStrategyTest2, TransformMatchesAccumulatedTensorProducts) {
  // The rewrite merges each term's key-sorted products instead of hashing
  // every product into one accumulator. Its result must be the
  // accumulator's, bit for bit: products of the 1-D factors with keys
  // packed dimension 0 first and values multiplied in dimension order,
  // summed per key in term order, swept with the relative threshold. The
  // batch rewrite, which shares 1-D factors across queries, must match too.
  const Schema schema =
      Schema::Create({{"a", 32}, {"b", 16}, {"c", 8}}).value();
  Rng rng(21);
  for (WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDb4}) {
    WaveletStrategy strategy(schema, kind);
    const WaveletFilter& filter = WaveletFilter::Get(kind);
    QueryBatch batch(schema);
    for (int t = 0; t < 12; ++t) {
      const Range range = RandomRange(schema, rng);
      switch (t % 3) {
        case 0:
          batch.Add(RangeSumQuery::Count(range));
          break;
        case 1:
          batch.Add(RangeSumQuery::Sum(range, 1));
          break;
        default:  // SUM(b + 53.33): two terms with colliding products
          batch.Add(RangeSumQuery(range, Polynomial::Attribute(3, 1) +
                                             Polynomial::Constant(3, 53.33)));
      }
      // A COUNT over the same first two intervals gives the batch rewrite
      // factors to share.
      if (t % 2 == 0) {
        std::vector<Interval> ivs = range.intervals();
        ivs[2] = {0, 7};
        batch.Add(RangeSumQuery::Count(Range::Create(schema, ivs).value()));
      }
    }
    Result<std::vector<SparseVec>> batched = strategy.TransformBatch(batch);
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_EQ(batched->size(), batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      const RangeSumQuery& query = batch.query(q);
      SparseAccumulator acc;
      for (const Monomial& term : query.poly().terms()) {
        std::vector<std::vector<SparseEntry>> f(3);
        for (size_t i = 0; i < 3; ++i) {
          const Interval& iv = query.range().interval(i);
          f[i] = LazyRangeMonomialDwt1D(schema.dim(i).size, iv.lo, iv.hi,
                                        term.exponents[i], filter);
        }
        for (const SparseEntry& x : f[0]) {
          for (const SparseEntry& y : f[1]) {
            for (const SparseEntry& z : f[2]) {
              const uint64_t key =
                  (((x.key << schema.bits(1)) | y.key) << schema.bits(2)) |
                  z.key;
              acc.Add(key, term.coeff * x.value * y.value * z.value);
            }
          }
        }
      }
      double max_abs = 0.0;
      for (const auto& [key, value] : acc.map()) {
        max_abs = std::max(max_abs, std::abs(value));
      }
      const SparseVec expected =
          acc.ToVec(max_abs * kQueryCoefficientRelEps);
      Result<SparseVec> single = strategy.TransformQuery(query);
      ASSERT_TRUE(single.ok()) << single.status();
      for (const SparseVec* actual : {&single.value(), &(*batched)[q]}) {
        ASSERT_EQ(actual->size(), expected.size()) << "query " << q;
        for (size_t j = 0; j < expected.size(); ++j) {
          EXPECT_EQ((*actual)[j].key, expected[j].key) << q << ":" << j;
          EXPECT_EQ((*actual)[j].value, expected[j].value) << q << ":" << j;
        }
      }
    }
  }
}

TEST(WaveletStrategySparsity, UpdateDeltaNnzWithinPaperBound) {
  // Section 5's update cost: one tuple insertion touches O((2δ+2)^d log^d N)
  // coefficients — per dimension, the impulse DWT has at most L = 2δ+2
  // nonzero taps per level plus the final average. Property-check the
  // explicit product bound Π_i (L·log2(N_i) + 1) over random tuples for
  // d ∈ {1, 2, 3}, Haar (L = 2) and Db4 (L = 4).
  for (const WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDb4}) {
    const double filter_len =
        static_cast<double>(WaveletFilter::Get(kind).length());
    for (const size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
      const uint32_t n = d == 3 ? 16 : 64;
      Schema schema = Schema::Uniform(d, n);
      WaveletStrategy strategy(schema, kind);
      double bound = 1.0;
      for (size_t i = 0; i < d; ++i) {
        bound *= filter_len * std::log2(static_cast<double>(n)) + 1.0;
      }
      Rng rng(101 + static_cast<uint64_t>(d));
      for (int t = 0; t < 20; ++t) {
        Tuple tuple(d);
        for (size_t i = 0; i < d; ++i) {
          tuple[i] = static_cast<uint32_t>(rng.UniformInt(n));
        }
        Result<SparseVec> delta = strategy.TransformUpdate(tuple, 1.0);
        ASSERT_TRUE(delta.ok());
        EXPECT_LE(static_cast<double>(delta->size()), bound)
            << "d=" << d << " N=" << n << " filter length " << filter_len;
        EXPECT_GT(delta->size(), 0u);
      }
    }
  }
}

TEST(LinearStrategyUpdate, TransformUpdateComposesLikeInsertTuple) {
  // InsertTuple is definitionally "apply TransformUpdate to the store";
  // the delta route and the in-place route must agree bitwise, and a
  // zero-count identity update must be empty.
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Relation rel = MakeUniformRelation(schema, 80, 23);
  auto direct = strategy.BuildStoreFromRelation(rel);
  auto via_delta = strategy.BuildStoreFromRelation(rel);
  const Tuple tuple{7, 11};
  ASSERT_TRUE(strategy.InsertTuple(*direct, tuple, 2.0).ok());
  Result<SparseVec> delta = strategy.TransformUpdate(tuple, 2.0);
  ASSERT_TRUE(delta.ok());
  for (const SparseEntry& e : *delta) via_delta->Add(e.key, e.value);
  for (uint64_t key = 0; key < schema.cell_count(); ++key) {
    EXPECT_EQ(direct->Peek(key), via_delta->Peek(key)) << "key " << key;
  }

  IdentityStrategy identity(schema);
  const Tuple cell{1, 2};
  EXPECT_EQ(identity.TransformUpdate(cell, 0.0).value().size(), 0u);
  Result<SparseVec> one = identity.TransformUpdate(cell, 3.0);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(one->entries()[0].key, schema.Pack(cell));
  EXPECT_EQ(one->entries()[0].value, 3.0);
  EXPECT_FALSE(identity.TransformUpdate({16, 0}, 1.0).ok());
}

TEST(PrefixSumStrategyTest, CountAndSumExact) {
  Schema schema = Schema::Uniform(3, 8);
  Relation rel = MakeUniformRelation(schema, 200, 17);
  DenseCube delta = rel.FrequencyDistribution();
  PrefixSumStrategy strategy(
      schema, {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  auto store = strategy.BuildStore(delta);
  Rng rng(19);
  for (int t = 0; t < 25; ++t) {
    Range range = RandomRange(schema, rng);
    for (const RangeSumQuery& q :
         {RangeSumQuery::Count(range), RangeSumQuery::Sum(range, 0),
          RangeSumQuery::Sum(range, 2)}) {
      const double expected = q.BruteForce(rel);
      EXPECT_NEAR(Evaluate(strategy, *store, q), expected,
                  1e-6 * (1.0 + std::abs(expected)));
    }
  }
}

TEST(PrefixSumStrategyTest, AnswerQueryBatchesCornerLookups) {
  // AnswerQuery retrieves a query's ≤2^d prefix-sum corners with one
  // FetchBatch: exact answers at exactly TransformQuery-size retrievals.
  Schema schema = Schema::Uniform(3, 8);
  Relation rel = MakeUniformRelation(schema, 200, 17);
  PrefixSumStrategy strategy(schema, {{0, 0, 0}, {1, 0, 0}});
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  Rng rng(31);
  for (int t = 0; t < 20; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery q = RangeSumQuery::Count(range);
    IoStats io;
    Result<double> answer = strategy.AnswerQuery(q, *store, &io);
    ASSERT_TRUE(answer.ok()) << answer.status();
    const double expected = q.BruteForce(rel);
    EXPECT_NEAR(*answer, expected, 1e-6 * (1.0 + std::abs(expected)));
    Result<SparseVec> coeffs = strategy.TransformQuery(q);
    ASSERT_TRUE(coeffs.ok());
    EXPECT_EQ(io.retrievals, coeffs->size());
    EXPECT_LE(io.retrievals, 8u);  // ≤ 2^d corners
  }
}

TEST(WaveletStrategyTest2, AnswerQueryMatchesEvaluate) {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 300, 7);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  Rng rng(43);
  for (int t = 0; t < 10; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery q = RangeSumQuery::Count(range);
    Result<double> answer = strategy.AnswerQuery(q, *store);
    ASSERT_TRUE(answer.ok());
    EXPECT_NEAR(*answer, Evaluate(strategy, *store, q), 1e-9);
  }
}

TEST(PrefixSumStrategyTest, AnswerQueryPropagatesRewriteFailure) {
  Schema schema = Schema::Uniform(2, 8);
  PrefixSumStrategy strategy(schema, {{0, 0}});
  auto store = strategy.BuildStore(
      MakeUniformRelation(schema, 20, 3).FrequencyDistribution());
  Result<double> answer = strategy.AnswerQuery(
      RangeSumQuery::Sum(Range::All(schema), 0), *store);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kNotFound);
}

TEST(PrefixSumStrategyTest, QueryCostAtMostTwoToTheD) {
  Schema schema = Schema::Uniform(4, 8);
  PrefixSumStrategy strategy(schema, {{0, 0, 0, 0}});
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    Range range = RandomRange(schema, rng);
    Result<SparseVec> q =
        strategy.TransformQuery(RangeSumQuery::Count(range));
    ASSERT_TRUE(q.ok());
    EXPECT_LE(q->size(), 16u);
  }
}

TEST(PrefixSumStrategyTest, RejectsUnsupportedMonomial) {
  Schema schema = Schema::Uniform(2, 8);
  PrefixSumStrategy strategy(schema, {{0, 0}});
  Result<SparseVec> q = strategy.TransformQuery(
      RangeSumQuery::Sum(Range::All(schema), 0));
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST(PrefixSumStrategyTest, CollectMonomialsFromBatch) {
  Schema schema = Schema::Uniform(2, 8);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema)));
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));  // duplicate
  auto monomials = PrefixSumStrategy::CollectMonomials(batch);
  EXPECT_EQ(monomials.size(), 2u);
}

TEST(PrefixSumStrategyTest, IncrementalInsertMatchesRebuild) {
  Schema schema = Schema::Uniform(2, 8);
  Relation rel = MakeUniformRelation(schema, 40, 29);
  PrefixSumStrategy strategy(schema, {{0, 0}, {1, 0}});
  auto built = strategy.BuildStore(rel.FrequencyDistribution());
  auto streamed = strategy.BuildStoreFromRelation(rel);
  for (uint64_t key = 0; key < 2 * schema.cell_count(); ++key) {
    EXPECT_NEAR(streamed->Peek(key), built->Peek(key), 1e-9) << key;
  }
}

TEST(IdentityStrategyTest, ExactAndCostEqualsVolume) {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 150, 37);
  IdentityStrategy strategy(schema);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  Rng rng(41);
  for (int t = 0; t < 20; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery count = RangeSumQuery::Count(range);
    EXPECT_NEAR(Evaluate(strategy, *store, count), count.BruteForce(rel),
                1e-9);
    Result<SparseVec> q = strategy.TransformQuery(count);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->size(), range.Volume());
    RangeSumQuery sum = RangeSumQuery::Sum(range, 0);
    EXPECT_NEAR(Evaluate(strategy, *store, sum), sum.BruteForce(rel), 1e-9);
  }
}

TEST(IdentityStrategyTest, InsertIsSingleCell) {
  Schema schema = Schema::Uniform(2, 8);
  IdentityStrategy strategy(schema);
  auto store = strategy.BuildStore(DenseCube(schema));
  ASSERT_TRUE(strategy.InsertTuple(*store, {3, 4}, 2.0).ok());
  EXPECT_EQ(store->NumNonZero(), 1u);
  EXPECT_DOUBLE_EQ(store->Peek(schema.Pack(std::vector<uint32_t>{3, 4})),
                   2.0);
}

TEST(StrategyNamesTest, Names) {
  Schema schema = Schema::Uniform(1, 4);
  EXPECT_EQ(WaveletStrategy(schema, WaveletKind::kDb4).name(),
            "wavelet-db4");
  EXPECT_EQ(PrefixSumStrategy(schema, {{0}}).name(), "prefix-sum");
  EXPECT_EQ(IdentityStrategy(schema).name(), "identity");
}

}  // namespace
}  // namespace wavebatch
