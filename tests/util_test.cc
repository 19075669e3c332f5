#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "telemetry/metrics.h"
#include "util/bits.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace wavebatch {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << Status::NotFound("x");
  EXPECT_EQ(os.str(), "NotFound: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(BitsTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
  EXPECT_FALSE(IsPowerOfTwo((uint64_t{1} << 63) + 1));
}

TEST(BitsTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(1024), 10u);
  EXPECT_EQ(FloorLog2(1025), 10u);
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(BitsTest, EuclidMod) {
  EXPECT_EQ(EuclidMod(5, 4), 1);
  EXPECT_EQ(EuclidMod(-1, 4), 3);
  EXPECT_EQ(EuclidMod(-4, 4), 0);
  EXPECT_EQ(EuclidMod(-5, 4), 3);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardSmallRanks) {
  Rng rng(17);
  const int n = 5000;
  int rank0 = 0, rank_last = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.Zipf(16, 1.2);
    EXPECT_LT(v, 16u);
    if (v == 0) ++rank0;
    if (v == 15) ++rank_last;
  }
  EXPECT_GT(rank0, 10 * std::max(rank_last, 1));
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(19);
  const int n = 8000;
  std::vector<int> counts(8, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.Zipf(8, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 16);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(29);
  auto s = rng.SampleWithoutReplacement(100, 20);
  ASSERT_EQ(s.size(), 20u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_EQ(std::set<uint64_t>(s.begin(), s.end()).size(), 20u);
  for (uint64_t x : s) EXPECT_LT(x, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(31);
  auto s = rng.SampleWithoutReplacement(10, 10);
  ASSERT_EQ(s.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(TableTest, PrintAligned) {
  Table t({"a", "bbbb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4    |"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table t({"x"});
  t.AddRow({"a,b"});
  t.AddRow({"q\"uote"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "x\n\"a,b\"\n\"q\"\"uote\"\n");
}

TEST(TableTest, RowCount) {
  Table t({"x", "y"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(FormatDoubleTest, SignificantDigits) {
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
  EXPECT_EQ(FormatDouble(1234567.0, 3), "1.23e+06");
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::promise<void> all_done;
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), /*grain=*/7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 16, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleChunkRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(5, 16, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, ParallelForWorksWithSingleWorker) {
  ThreadPool pool(1);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, 3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST(ThreadPoolTest, ParallelForChunkBoundariesIndependentOfThreadCount) {
  // Determinism contract: chunking depends only on (n, grain).
  auto collect = [](ThreadPool& pool) {
    std::mutex mu;
    std::set<std::pair<size_t, size_t>> chunks;
    pool.ParallelFor(50, 8, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.insert({begin, end});
    });
    return chunks;
  };
  ThreadPool one(1), many(8);
  EXPECT_EQ(collect(one), collect(many));
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForInlineBoundaryIsExactlyGrain) {
  // n <= grain runs inline on the caller; n == grain + 1 must not (it
  // splits into two chunks, and at least one may land on a worker). The
  // inline case is observable by thread identity.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(16, /*grain=*/16, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 16u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);

  std::mutex mu;
  std::set<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(17, /*grain=*/16, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.insert({begin, end});
  });
  const std::set<std::pair<size_t, size_t>> expected = {{0, 16}, {16, 17}};
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPoolTest, ThrowingTaskLeavesGaugesBalancedAndWorkerAlive) {
  // Regression: the queue-depth gauge pairs one increment per Submit with
  // one decrement per dequeue. A task that threw used to take the worker
  // down (uncaught exception on a thread), after which queued increments
  // were never drained — the gauge read phantom load forever, and server
  // backpressure keyed off it would shed traffic on an idle pool.
  auto& registry = telemetry::MetricsRegistry::Default();
  telemetry::Gauge* depth =
      registry.GetGauge("wavebatch_thread_pool_queue_depth", {});
  telemetry::Counter* exceptions =
      registry.GetCounter("wavebatch_thread_pool_task_exceptions_total", {});
  const double depth_before = depth->Value();
  const uint64_t exceptions_before = exceptions->Value();

  ThreadPool pool(1);
  std::promise<void> done;
  pool.Submit([] { throw std::runtime_error("injected task failure"); });
  pool.Submit([] { throw 42; });  // non-std exceptions must not slip through
  // The single worker can only reach this task by surviving both throws.
  pool.Submit([&] { done.set_value(); });
  done.get_future().wait();

  EXPECT_EQ(exceptions->Value(), exceptions_before + 2);
  EXPECT_DOUBLE_EQ(depth->Value(), depth_before);
}

TEST(ThreadPoolTest, ParallelForRethrowsChunkExceptionOnCaller) {
  // Every chunk must count as done even when fn throws — otherwise the
  // caller deadlocks waiting for the lost chunk — and the first exception
  // surfaces on the calling thread, never on a worker.
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(100, /*grain=*/10,
                       [&](size_t begin, size_t) {
                         ran.fetch_add(1);
                         if (begin == 30) throw std::runtime_error("chunk 30");
                       }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 10u);  // later chunks still ran

  // The pool stays fully usable afterwards.
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, 3, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST(ThreadPoolTest, ParallelForDefaultGrainOverload) {
  // The two-argument overload chunks by kDefaultGrain: a range within the
  // default grain runs inline as one call; a larger one is split on
  // kDefaultGrain boundaries.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  size_t calls = 0;
  pool.ParallelFor(ThreadPool::kDefaultGrain, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, ThreadPool::kDefaultGrain);
    ran_on = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(ran_on, caller);

  std::mutex mu;
  std::set<std::pair<size_t, size_t>> chunks;
  pool.ParallelFor(2 * ThreadPool::kDefaultGrain + 1,
                   [&](size_t begin, size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.insert({begin, end});
                   });
  const std::set<std::pair<size_t, size_t>> expected = {
      {0, ThreadPool::kDefaultGrain},
      {ThreadPool::kDefaultGrain, 2 * ThreadPool::kDefaultGrain},
      {2 * ThreadPool::kDefaultGrain, 2 * ThreadPool::kDefaultGrain + 1}};
  EXPECT_EQ(chunks, expected);
}

}  // namespace
}  // namespace wavebatch
