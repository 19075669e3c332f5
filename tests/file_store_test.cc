#include "storage/file_store.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "strategy/wavelet_strategy.h"
#include "wavelet/dwt_nd.h"

namespace wavebatch {
namespace {

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/wavebatch_file_store_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(FileStoreTest, CreatePeekRoundTrip) {
  std::vector<double> values = {0.0, 1.5, -2.25, 0.0, 42.0};
  Result<std::unique_ptr<FileStore>> store = FileStore::Create(path_, values);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->capacity(), 5u);
  for (uint64_t k = 0; k < values.size(); ++k) {
    EXPECT_DOUBLE_EQ((*store)->Peek(k), values[k]);
  }
  EXPECT_EQ((*store)->NumNonZero(), 3u);
  EXPECT_DOUBLE_EQ((*store)->SumAbs(), 1.5 + 2.25 + 42.0);
}

TEST_F(FileStoreTest, ReopenSeesPersistedData) {
  {
    Result<std::unique_ptr<FileStore>> store =
        FileStore::Create(path_, {3.0, 4.0});
    ASSERT_TRUE(store.ok());
    (*store)->Add(0, 1.0);
  }
  Result<std::unique_ptr<FileStore>> reopened = FileStore::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->capacity(), 2u);
  EXPECT_DOUBLE_EQ((*reopened)->Peek(0), 4.0);
  EXPECT_DOUBLE_EQ((*reopened)->Peek(1), 4.0);
}

TEST_F(FileStoreTest, OpenMissingFileFails) {
  Result<std::unique_ptr<FileStore>> store =
      FileStore::Open(path_ + ".does-not-exist");
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
}

TEST_F(FileStoreTest, FetchCountsIo) {
  Result<std::unique_ptr<FileStore>> store =
      FileStore::Create(path_, {1.0, 2.0});
  ASSERT_TRUE(store.ok());
  IoStats io;
  EXPECT_TRUE((*store)->Fetch(0, &io).ok());
  EXPECT_TRUE((*store)->Fetch(1, &io).ok());
  EXPECT_EQ(io.retrievals, 2u);
}

TEST_F(FileStoreTest, FetchOutOfCapacityIsStatusNotAbort) {
  Result<std::unique_ptr<FileStore>> store =
      FileStore::Create(path_, {1.0, 2.0});
  ASSERT_TRUE(store.ok());
  IoStats io;
  Result<double> value = (*store)->Fetch(2, &io);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(io.retrievals, 0u);

  std::vector<uint64_t> keys = {0, 2};
  std::vector<double> out(keys.size());
  Status status = (*store)->FetchBatch(keys, out, &io);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(io.retrievals, 0u);
}

TEST_F(FileStoreTest, TruncatedFileReportsUnexpectedEofNotShortRead) {
  // A file shorter than the store's capacity claims: pread returns 0 at the
  // hole. That is not a retryable read error — the fetch must come back as
  // a Status naming the EOF, not spin on retries or abort.
  Result<std::unique_ptr<FileStore>> store =
      FileStore::Create(path_, std::vector<double>(16, 1.0));
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(::truncate(path_.c_str(), 8 * sizeof(double)), 0);

  Result<double> value = (*store)->Fetch(12);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(value.status().message().find("unexpected EOF"),
            std::string::npos)
      << value.status();

  // Batched reads hit the same hole through the coalesced-run path.
  std::vector<uint64_t> keys = {0, 12};
  std::vector<double> out(keys.size());
  Status status = (*store)->FetchBatch(keys, out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(FileStoreTest, ForEachNonZeroScansEverything) {
  std::vector<double> values(10000, 0.0);
  values[7] = 1.0;
  values[4096] = -1.0;  // crosses the internal scan-buffer boundary
  values[9999] = 2.0;
  Result<std::unique_ptr<FileStore>> store = FileStore::Create(path_, values);
  ASSERT_TRUE(store.ok());
  std::vector<std::pair<uint64_t, double>> seen;
  (*store)->ForEachNonZero(
      [&](uint64_t key, double value) { seen.emplace_back(key, value); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, double>{7, 1.0}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, double>{4096, -1.0}));
  EXPECT_EQ(seen[2], (std::pair<uint64_t, double>{9999, 2.0}));
}

TEST_F(FileStoreTest, FetchBatchMatchesScalarLoop) {
  // Values/retrievals identical to a Fetch loop, across batch shapes that
  // exercise every coalescing path: unsorted, duplicates, contiguous runs,
  // gap-merged runs, far-apart singletons, and a batch large enough to
  // cross the parallel-fetch threshold.
  std::vector<double> values(8192);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i));
  }
  Result<std::unique_ptr<FileStore>> store = FileStore::Create(path_, values);
  ASSERT_TRUE(store.ok());

  std::vector<std::vector<uint64_t>> batches = {
      {},
      {5},
      {5, 5, 5},
      {9, 2, 0, 8191, 4096, 3, 2},
      {100, 101, 102, 103, 110, 200, 8000, 8001},
  };
  std::vector<uint64_t> big;
  for (uint64_t i = 0; i < 2048; ++i) big.push_back((i * 2654435761u) % 8192);
  batches.push_back(big);

  for (const std::vector<uint64_t>& keys : batches) {
    IoStats io;
    std::vector<double> out(keys.size(), -1.0);
    ASSERT_TRUE((*store)->FetchBatch(keys, out, &io).ok());
    EXPECT_EQ(io.retrievals, keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(out[i], values[keys[i]]) << "key " << keys[i];
    }
  }
}

TEST_F(FileStoreTest, AnswersBatchQueriesLikeInMemoryStore) {
  // End to end: a wavelet view persisted to disk answers identically to
  // the in-memory view.
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 300, 13);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  DenseCube transformed = rel.FrequencyDistribution();
  ForwardDwtNd(transformed, strategy.filter());
  std::vector<double> view(transformed.values().begin(),
                           transformed.values().end());
  Result<std::unique_ptr<FileStore>> file_store =
      FileStore::Create(path_, view);
  ASSERT_TRUE(file_store.ok());
  auto memory_store = strategy.BuildStore(rel.FrequencyDistribution());

  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 3, 12)));
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));
  // Exact shared evaluation: key-order sessions run to completion.
  auto plan = EvalPlan::Build(batch, strategy, /*penalty=*/nullptr).value();
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession from_file(plan, std::move(file_store).value(), opts);
  EvalSession from_memory(plan, std::move(memory_store), opts);
  ASSERT_TRUE(from_file.RunToExact().ok());
  ASSERT_TRUE(from_memory.RunToExact().ok());
  ASSERT_EQ(from_file.Estimates().size(), from_memory.Estimates().size());
  for (size_t i = 0; i < from_file.Estimates().size(); ++i) {
    EXPECT_NEAR(from_file.Estimates()[i], from_memory.Estimates()[i], 1e-9);
  }
  EXPECT_EQ(from_file.io().retrievals, from_memory.io().retrievals);
}

}  // namespace
}  // namespace wavebatch
