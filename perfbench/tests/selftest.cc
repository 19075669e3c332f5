// The benchmark's own tests: the timing decorator must be invisible to the
// sessions reading through it, and the answer checks must reject wrong
// answers.

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "penalty/sse.h"
#include "storage/versioned_store.h"
#include "strategy/wavelet_strategy.h"
#include "timing_store.h"

namespace perfbench {
namespace {

using namespace wavebatch;

uint64_t EpochOf(const CoefficientStore& store) {
  const CoefficientStore* inner = &store;
  if (const auto* timed = dynamic_cast<const TimingStore*>(inner)) {
    inner = &timed->inner();
  }
  const auto* snapshot = dynamic_cast<const SnapshotStore*>(inner);
  return snapshot == nullptr ? ~uint64_t{0} : snapshot->epoch();
}

TEST(TimingStoreTest, SessionsReadTheSameEpochAndAnswers) {
  TemperatureDatasetOptions data;
  data.lat_size = 16;
  data.lon_size = 16;
  data.alt_size = 4;
  data.time_size = 4;
  data.temp_size = 8;
  data.num_records = 20000;
  const DenseCube cube = MakeTemperatureCube(data);
  const WaveletStrategy strategy(cube.schema(), WaveletKind::kHaar);
  auto versioned = std::make_shared<VersionedStore>(strategy.BuildStore(cube));
  auto ledger = std::make_shared<FetchLedger>();
  ledger->recording.store(true);
  auto timed = std::make_shared<TimingStore>(versioned, ledger);

  const Relation tuples = MakeTemperatureDataset(data);
  auto ingest = [&](uint64_t from, uint64_t to) {
    for (uint64_t i = from; i < to; ++i) {
      Result<SparseVec> delta = strategy.TransformUpdate(tuples.tuple(i), 1.0);
      ASSERT_TRUE(delta.ok());
      versioned->Ingest(delta.value());
    }
    versioned->Publish();
  };
  ingest(0, 200);

  const std::vector<size_t> parts = {4, 2, 1, 1, 1};
  const QueryBatch batch =
      MakePartitionWorkload(cube.schema(), parts, CellAggregate::kSum, kTemp,
                            /*seed=*/7)
          .batch;
  auto plan = EvalPlan::Build(batch, strategy, std::make_shared<SsePenalty>());
  ASSERT_TRUE(plan.ok());
  EvalSession direct(plan.value(), versioned);
  EvalSession through(plan.value(), timed);
  // The epoch advances after both sessions pinned: each must keep reading
  // the epoch it pinned.
  ingest(200, 400);
  ASSERT_TRUE(direct.RunToExact().ok());
  ASSERT_TRUE(through.RunToExact().ok());

  EXPECT_EQ(EpochOf(direct.store()), 1u);
  EXPECT_EQ(EpochOf(through.store()), EpochOf(direct.store()));
  EXPECT_TRUE(direct.io() == through.io());
  ASSERT_EQ(direct.Estimates().size(), through.Estimates().size());
  for (size_t i = 0; i < direct.Estimates().size(); ++i) {
    EXPECT_EQ(direct.Estimates()[i], through.Estimates()[i]) << "query " << i;
  }

  // Every retrieval went through the decorator's ledger.
  uint64_t keys = 0;
  for (const FetchLedger::Call& call : ledger->Take()) keys += call.keys;
  EXPECT_EQ(keys, through.io().retrievals);
  EXPECT_EQ(timed->router(), versioned->router());
}

TEST(TimingStoreTest, UnversionedStoreIsItsOwnSnapshot) {
  TemperatureDatasetOptions data;
  data.lat_size = 8;
  data.lon_size = 8;
  data.alt_size = 2;
  data.time_size = 2;
  data.temp_size = 4;
  data.num_records = 1000;
  const DenseCube cube = MakeTemperatureCube(data);
  const WaveletStrategy strategy(cube.schema(), WaveletKind::kHaar);
  std::shared_ptr<const CoefficientStore> dense = strategy.BuildStore(cube);
  TimingStore timed(dense, std::make_shared<FetchLedger>());
  EXPECT_EQ(timed.PinVersion(), nullptr);
  EXPECT_EQ(timed.SumAbs(), dense->SumAbs());
}

TEST(ChecksTest, ExactAnswersMustMatchTheOracle) {
  const std::vector<double> oracle = {0.0, 1e7, -3.5};
  EXPECT_EQ(CheckExact(oracle, oracle), "");
  std::vector<double> near = oracle;
  near[1] += 1e-3;  // 1e-10 relative: rounding, not a wrong answer
  EXPECT_EQ(CheckExact(near, oracle), "");
  std::vector<double> wrong = oracle;
  wrong[1] += 1.0 + 1e-3 * std::fabs(wrong[1]);  // what --corrupt does
  EXPECT_NE(CheckExact(wrong, oracle), "");
  std::vector<double> nan = oracle;
  nan[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(CheckExact(nan, oracle), "");
  EXPECT_NE(CheckExact(std::vector<double>(2, 0.0), oracle), "");
}

TEST(ChecksTest, BoundMustEncloseTheTrueError) {
  const SsePenalty sse;
  const std::vector<double> exact = {10.0, 20.0};
  const std::vector<double> estimate = {13.0, 16.0};  // SSE = 9 + 16 = 25
  EXPECT_EQ(CheckBoundEncloses(sse, estimate, exact, 25.0), "");
  EXPECT_EQ(CheckBoundEncloses(sse, estimate, exact, 30.0), "");
  EXPECT_NE(CheckBoundEncloses(sse, estimate, exact, 24.0), "");
  EXPECT_EQ(CheckBoundEncloses(sse, exact, exact, 0.0), "");
}

}  // namespace
}  // namespace perfbench
