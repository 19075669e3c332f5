#include "core/master_list.h"

#include "data/generators.h"
#include "gtest/gtest.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

/// Random per-query sparse vectors, query q holding nnz[q] coefficients
/// drawn from [0, domain); a small domain makes keys collide across queries.
std::vector<SparseVec> RandomQueryVectors(const std::vector<size_t>& nnz,
                                          uint64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseVec> qs;
  qs.reserve(nnz.size());
  for (size_t n : nnz) {
    std::vector<SparseEntry> entries;
    for (uint64_t key : rng.SampleWithoutReplacement(domain, n)) {
      entries.push_back({key, rng.Gaussian()});
    }
    qs.push_back(SparseVec::FromUnsorted(entries));
  }
  return qs;
}

TEST(MasterListTest, FromQueryVectorsMergesByKey) {
  std::vector<SparseVec> qs = {
      SparseVec::FromUnsorted({{1, 1.0}, {5, 2.0}}),
      SparseVec::FromUnsorted({{5, 3.0}, {9, -1.0}}),
      SparseVec::FromUnsorted({{1, 0.5}, {5, 0.5}, {9, 0.5}}),
  };
  MasterList list = MasterList::FromQueryVectors(qs);
  EXPECT_EQ(list.num_queries(), 3u);
  EXPECT_EQ(list.size(), 3u);  // keys 1, 5, 9
  EXPECT_EQ(list.TotalQueryCoefficients(), 7u);
  EXPECT_EQ(list.MaxSharing(), 3u);

  EXPECT_EQ(list.keys()[0], 1u);
  ASSERT_EQ(list.uses_offsets()[1] - list.uses_offsets()[0], 2u);
  EXPECT_EQ(list.uses_query()[0], 0u);
  EXPECT_DOUBLE_EQ(list.uses_coeff()[0], 1.0);
  EXPECT_EQ(list.uses_query()[1], 2u);

  EXPECT_EQ(list.keys()[1], 5u);
  EXPECT_EQ(list.uses_offsets()[2] - list.uses_offsets()[1], 3u);
}

TEST(MasterListTest, EntriesSortedAndUsesAscending) {
  std::vector<SparseVec> qs = {
      SparseVec::FromUnsorted({{100, 1.0}, {2, 1.0}, {50, 1.0}}),
      SparseVec::FromUnsorted({{50, 1.0}, {2, 1.0}}),
  };
  MasterList list = MasterList::FromQueryVectors(qs);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list.keys()[i - 1], list.keys()[i]);
  }
  for (size_t i = 0; i < list.size(); ++i) {
    const uint64_t lo = list.uses_offsets()[i];
    for (uint64_t r = lo + 1; r < list.uses_offsets()[i + 1]; ++r) {
      EXPECT_LT(list.uses_query()[r - 1], list.uses_query()[r]);
    }
  }
}

TEST(MasterListTest, PerQueryCoefficients) {
  std::vector<SparseVec> qs = {
      SparseVec::FromUnsorted({{1, 1.0}}),
      SparseVec::FromUnsorted({{1, 1.0}, {2, 1.0}, {3, 1.0}}),
  };
  MasterList list = MasterList::FromQueryVectors(qs);
  ASSERT_EQ(list.PerQueryCoefficients().size(), 2u);
  EXPECT_EQ(list.PerQueryCoefficients()[0], 1u);
  EXPECT_EQ(list.PerQueryCoefficients()[1], 3u);
}

TEST(MasterListTest, EmptyBatch) {
  MasterList list = MasterList::FromQueryVectors({});
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.num_queries(), 0u);
  EXPECT_EQ(list.MaxSharing(), 0u);
}

TEST(MasterListTest, BuildFromBatchSharesAcrossAdjacentRanges) {
  // Two adjacent ranges share boundary wavelets: the master list must be
  // strictly smaller than the sum of the parts.
  Schema schema = Schema::Uniform(2, 32);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 0, 15)));
  batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 16, 31)));
  Result<MasterList> list = MasterList::Build(batch, strategy);
  ASSERT_TRUE(list.ok()) << list.status();
  EXPECT_LT(list->size(), list->TotalQueryCoefficients());
  EXPECT_GE(list->MaxSharing(), 2u);
}

TEST(MasterListTest, CsrViewMatchesEntriesView) {
  // The CSR image is well formed: prefix offsets cover every use, keys are
  // strictly ascending, each row is strictly ascending by query, and every
  // (key, query, coefficient) triple is one of the input coefficients.
  // Inputs: a dozen equal-sized queries, and an odd number of queries with
  // empty ones at the start, in the middle and at the end, whose keys
  // collide heavily (ties across queries must come out in query order).
  const std::vector<std::vector<SparseVec>> inputs = {
      RandomQueryVectors(std::vector<size_t>(12, 200), /*domain=*/1024, 3),
      RandomQueryVectors({0, 13, 7, 0, 1, 29, 4, 0, 0}, /*domain=*/50, 5),
  };
  for (const std::vector<SparseVec>& qs : inputs) {
    SCOPED_TRACE(qs.size());
    MasterList list = MasterList::FromQueryVectors(qs);
    ASSERT_EQ(list.num_queries(), qs.size());
    ASSERT_EQ(list.PerQueryCoefficients().size(), qs.size());
    for (size_t q = 0; q < qs.size(); ++q) {
      EXPECT_EQ(list.PerQueryCoefficients()[q], qs[q].size()) << "query " << q;
    }
    ASSERT_EQ(list.keys().size(), list.size());
    ASSERT_EQ(list.uses_offsets().size(), list.size() + 1);
    EXPECT_EQ(list.uses_offsets().front(), 0u);
    EXPECT_EQ(list.uses_offsets().back(), list.uses_query().size());
    ASSERT_EQ(list.uses_query().size(), list.uses_coeff().size());
    EXPECT_EQ(list.uses_query().size(), list.TotalQueryCoefficients());
    EXPECT_GE(list.MaxSharing(), 2u);  // keys genuinely collide
    for (size_t e = 0; e < list.size(); ++e) {
      if (e > 0) {
        EXPECT_LT(list.keys()[e - 1], list.keys()[e]);
      }
      const uint64_t lo = list.uses_offsets()[e];
      const uint64_t hi = list.uses_offsets()[e + 1];
      ASSERT_LT(lo, hi) << "entry " << e << " has no uses";
      for (uint64_t r = lo; r < hi; ++r) {
        if (r > lo) {
          EXPECT_LT(list.uses_query()[r - 1], list.uses_query()[r]);
        }
        const uint32_t q = list.uses_query()[r];
        ASSERT_LT(q, qs.size());
        EXPECT_EQ(qs[q].ValueAt(list.keys()[e]), list.uses_coeff()[r])
            << "entry " << e << " query " << q;
      }
    }
  }
}

TEST(MasterListTest, BuildPropagatesRewriteErrors) {
  // A prefix-sum strategy that does not support SUM monomials.
  Schema schema = Schema::Uniform(2, 8);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 0));
  // Use wavelet strategy with mismatched dims to trigger an error instead:
  WaveletStrategy other(Schema::Uniform(3, 8), WaveletKind::kHaar);
  Result<MasterList> list = MasterList::Build(batch, other);
  EXPECT_FALSE(list.ok());
}

}  // namespace
}  // namespace wavebatch
