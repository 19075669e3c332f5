// The sharded coefficient plane's contract: routing is a pure partition
// (values and cost identical to the unsharded plane), S=1 is bit-identical
// to the backend it wraps, S>1 is value-identical with per-shard IoStats
// summing to the unsharded totals, batches stay all-or-nothing across
// shard failures, and hot-tier promotion moves traffic off the backends
// without changing a single answer.

#include "storage/sharded_store.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "reference/progressive.h"
#include "storage/block_store.h"
#include "storage/fault_injection_store.h"
#include "storage/key_router.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

TEST(KeyRouterTest, UniformPartitionCoversTheKeySpace) {
  const KeyRouter router = KeyRouter::Uniform(/*key_space=*/100,
                                              /*num_shards=*/4);
  EXPECT_EQ(router.num_shards(), 4u);
  EXPECT_EQ(router.delims(), (std::vector<uint64_t>{25, 50, 75}));
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(24), 0u);
  EXPECT_EQ(router.ShardOf(25), 1u);
  EXPECT_EQ(router.ShardOf(74), 2u);
  EXPECT_EQ(router.ShardOf(75), 3u);
  EXPECT_EQ(router.ShardOf(99), 3u);
  // Keys beyond the nominal space still route (to the last shard).
  EXPECT_EQ(router.ShardOf(1'000'000), 3u);
  EXPECT_EQ(router.ShardBegin(0), 0u);
  EXPECT_EQ(router.ShardBegin(3), 75u);
}

TEST(KeyRouterTest, SingleShardOwnsEverything) {
  const KeyRouter router = KeyRouter::Uniform(1 << 20, 1);
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(~uint64_t{0}), 0u);
}

/// The shared evaluation fixture (same shape as engine_test): a 2×16 Haar
/// cube, 12 Count queries, an SSE-ranked plan, and the Δ̂ store.
struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::unique_ptr<CoefficientStore> store;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;

  Fixture() : rel(MakeUniformRelation(schema, 500, 3)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    Rng rng(9);
    for (int i = 0; i < 12; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
    store = strategy.BuildStore(rel.FrequencyDistribution());
    plan = EvalPlan::FromMasterList(list, sse);
  }

  uint64_t MaxKey() const {
    uint64_t max_key = 0;
    store->ForEachNonZero(
        [&](uint64_t key, double) { max_key = std::max(max_key, key); });
    return max_key;
  }
};

/// Hash-backed shards holding `source`'s coefficients, each shard loaded
/// with exactly the keys it owns under `router`.
std::vector<std::unique_ptr<CoefficientStore>> MakeHashShards(
    const CoefficientStore& source, const KeyRouter& router) {
  std::vector<std::unique_ptr<HashStore>> shards;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    shards.push_back(std::make_unique<HashStore>());
  }
  source.ForEachNonZero([&](uint64_t key, double value) {
    shards[router.ShardOf(key)]->Add(key, value);
  });
  std::vector<std::unique_ptr<CoefficientStore>> out;
  for (auto& shard : shards) out.push_back(std::move(shard));
  return out;
}

TEST(ShardedStoreTest, AggregatesMatchTheUnshardedPlane) {
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  ShardedStore sharded(MakeHashShards(*f.store, router), router,
                       {.threads_per_shard = 0});
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.NumNonZero(), f.store->NumNonZero());
  EXPECT_DOUBLE_EQ(sharded.SumAbs(), f.store->SumAbs());
  f.store->ForEachNonZero([&](uint64_t key, double value) {
    EXPECT_EQ(sharded.Peek(key), value);
  });
  ASSERT_NE(sharded.router(), nullptr);
  EXPECT_EQ(sharded.router()->num_shards(), 4u);
}

class ShardedOrderTest : public ::testing::TestWithParam<ProgressionOrder> {};

TEST_P(ShardedOrderTest, S1GoldenBitIdenticalToLegacyEvaluator) {
  // The single-shard plane wrapping a copy of the store must be
  // indistinguishable from the legacy evaluator on the store itself:
  // estimates, both bound trackers, and IoStats, at every batch boundary.
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 1);
  ShardedStore sharded(MakeHashShards(*f.store, router), router);
  ProgressiveEvaluator legacy(f.list.get(), f.sse.get(), f.store.get(),
                              GetParam(), 17);
  EvalSession::Options opts;
  opts.order = GetParam();
  opts.seed = 17;
  EvalSession session(f.plan, UnownedStore(sharded), opts);
  const double k = f.store->SumAbs();
  const size_t batch_sizes[] = {1, 3, 7, 16, 64};
  size_t bi = 0;
  while (!session.Done()) {
    const size_t n = batch_sizes[bi++ % std::size(batch_sizes)];
    const size_t taken = session.StepBatch(n).value();
    EXPECT_EQ(taken, legacy.StepBatch(n));
    ASSERT_EQ(session.StepsTaken(), legacy.StepsTaken());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(session.Estimates()[q], legacy.Estimates()[q])
          << "query " << q << " after " << session.StepsTaken();
    }
    EXPECT_EQ(session.WorstCaseBound(k), legacy.WorstCaseBound(k));
    EXPECT_EQ(session.ExpectedPenalty(f.schema.cell_count()),
              legacy.ExpectedPenalty(f.schema.cell_count()));
    EXPECT_EQ(session.io(), legacy.io());
  }
  EXPECT_TRUE(legacy.Done());
  EXPECT_EQ(session.io().retrievals, f.list->size());
}

TEST_P(ShardedOrderTest, S4GoldenValueIdenticalToLegacyEvaluator) {
  // Four shards with real fan-out: every estimate, bound, and the
  // retrieval total must still match the legacy evaluator exactly — the
  // scatter-gather reorders I/O, never arithmetic.
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  ShardedStore sharded(MakeHashShards(*f.store, router), router,
                       {.threads_per_shard = 1});
  ProgressiveEvaluator legacy(f.list.get(), f.sse.get(), f.store.get(),
                              GetParam(), 17);
  EvalSession::Options opts;
  opts.order = GetParam();
  opts.seed = 17;
  EvalSession session(f.plan, UnownedStore(sharded), opts);
  const double k = f.store->SumAbs();
  while (!session.Done()) {
    const size_t taken = session.StepBatch(16).value();
    EXPECT_EQ(taken, legacy.StepBatch(16));
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(session.Estimates()[q], legacy.Estimates()[q])
          << "query " << q << " after " << session.StepsTaken();
    }
    EXPECT_EQ(session.WorstCaseBound(k), legacy.WorstCaseBound(k));
    EXPECT_EQ(session.io(), legacy.io());
  }
  EXPECT_TRUE(legacy.Done());
  // Every counted key was served by the shard the router assigned it.
  uint64_t shard_sum = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    shard_sum += sharded.shard_keys_fetched(s);
  }
  EXPECT_EQ(shard_sum, session.io().retrievals);
  EXPECT_GT(sharded.subbatches_issued(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Orders, ShardedOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kKeyOrder,
                                           ProgressionOrder::kRandom));

TEST(ShardedStoreTest, PerShardBlockCountersSumToTheUnshardedTotals) {
  // Block-simulated shards: with router delimiters aligned to block
  // boundaries, the merged IoStats (retrievals AND block reads/hits) must
  // equal the unsharded block store's — the sub-model counters survive the
  // scatter-gather merge intact.
  Fixture f;
  constexpr uint64_t kBlockSize = 8;
  // Round the key space up so every Uniform delimiter is block-aligned.
  const uint64_t key_space = (f.MaxKey() / (4 * kBlockSize) + 1) *
                             (4 * kBlockSize);
  const KeyRouter router = KeyRouter::Uniform(key_space, 4);
  for (uint64_t delim : router.delims()) ASSERT_EQ(delim % kBlockSize, 0u);

  auto make_blocked = [&](std::unique_ptr<CoefficientStore> inner) {
    return std::make_unique<BlockStore>(std::move(inner), kBlockSize,
                                        /*cache_blocks=*/0);
  };
  std::vector<std::unique_ptr<CoefficientStore>> shards;
  for (auto& shard : MakeHashShards(*f.store, router)) {
    shards.push_back(make_blocked(std::move(shard)));
  }
  ShardedStore sharded(std::move(shards), router, {.threads_per_shard = 1});

  auto unsharded_inner = std::make_unique<HashStore>();
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { unsharded_inner->Add(key, value); });
  BlockStore unsharded(std::move(unsharded_inner), kBlockSize,
                       /*cache_blocks=*/0);

  EvalSession::Options opts;
  opts.order = ProgressionOrder::kBiggestB;
  EvalSession sharded_session(f.plan, UnownedStore(sharded), opts);
  EvalSession unsharded_session(f.plan, UnownedStore(unsharded), opts);
  ASSERT_TRUE(sharded_session.RunToExact().ok());
  ASSERT_TRUE(unsharded_session.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_EQ(sharded_session.Estimates()[q], unsharded_session.Estimates()[q]);
  }
  EXPECT_EQ(sharded_session.io(), unsharded_session.io());
}

TEST(ShardedStoreTest, ShardFailureFailsTheWholeBatchAndChargesNothing) {
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  std::vector<std::unique_ptr<CoefficientStore>> shards;
  std::vector<FaultInjectionStore*> faulty(4, nullptr);
  for (auto& shard : MakeHashShards(*f.store, router)) {
    auto wrapped = std::make_unique<FaultInjectionStore>(std::move(shard));
    faulty[shards.size()] = wrapped.get();
    shards.push_back(std::move(wrapped));
  }
  ShardedStore sharded(std::move(shards), router, {.threads_per_shard = 1});

  // A batch spanning all four shards; fail one key owned by shard 2.
  std::vector<uint64_t> keys;
  std::vector<uint32_t> seen_shards(4, 0);
  f.store->ForEachNonZero([&](uint64_t key, double) {
    const uint32_t s = router.ShardOf(key);
    if (seen_shards[s] < 4) {
      ++seen_shards[s];
      keys.push_back(key);
    }
  });
  ASSERT_GE(keys.size(), 4u);
  uint64_t bad_key = 0;
  for (uint64_t key : keys) {
    if (router.ShardOf(key) == 2) {
      bad_key = key;
      break;
    }
  }
  faulty[2]->FailKey(bad_key);

  std::vector<double> out(keys.size(), -1.0);
  IoStats io;
  Status status = sharded.FetchBatch(keys, out, &io);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(io.retrievals, 0u);  // all-or-nothing: nothing charged

  faulty[2]->Heal();
  ASSERT_TRUE(sharded.FetchBatch(keys, out, &io).ok());
  EXPECT_EQ(io.retrievals, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], f.store->Peek(keys[i])) << "key " << keys[i];
  }
}

TEST(ShardedStoreTest, RebalancePromotesHotRangesIntoTheMemoryTier) {
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  std::vector<std::unique_ptr<CoefficientStore>> shards;
  std::vector<FaultInjectionStore*> faulty(4, nullptr);
  for (auto& shard : MakeHashShards(*f.store, router)) {
    auto wrapped = std::make_unique<FaultInjectionStore>(std::move(shard));
    faulty[shards.size()] = wrapped.get();
    shards.push_back(std::move(wrapped));
  }
  ShardedStoreOptions opts;
  opts.threads_per_shard = 0;
  opts.hot_range_bits = 3;  // 8-key ranges
  opts.promote_min_fetches = 4;
  opts.max_hot_ranges = 2;
  ShardedStore sharded(std::move(shards), router, opts);
  EXPECT_EQ(sharded.epoch(), 0u);

  // Pick two nonzero "head" keys on different shards and hammer them.
  std::vector<uint64_t> head;
  f.store->ForEachNonZero([&](uint64_t key, double) {
    if (head.empty()) {
      head.push_back(key);
    } else if (head.size() == 1 &&
               router.ShardOf(key) != router.ShardOf(head[0]) &&
               (key >> opts.hot_range_bits) != (head[0] >> opts.hot_range_bits)) {
      head.push_back(key);
    }
  });
  ASSERT_EQ(head.size(), 2u);
  IoStats io;
  for (int round = 0; round < 8; ++round) {
    for (uint64_t key : head) {
      ASSERT_TRUE(sharded.Fetch(key, &io).ok());
    }
  }
  EXPECT_EQ(sharded.hot_hits(), 0u);  // nothing promoted before Rebalance()

  const RebalanceReport report = sharded.Rebalance();
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(sharded.epoch(), 1u);
  EXPECT_EQ(report.hot_ranges, 2u);
  EXPECT_GE(report.hot_keys, 2u);

  // Proof the hot tier serves from memory: fail the head keys on their
  // backends — fetches must still succeed, with the correct values, and
  // without advancing the backends' fetch ordinals.
  for (uint64_t key : head) faulty[router.ShardOf(key)]->FailKey(key);
  std::vector<uint64_t> backend_fetches;
  for (auto* store : faulty) backend_fetches.push_back(store->fetch_count());
  const uint64_t hot_before = sharded.hot_hits();
  for (uint64_t key : head) {
    Result<double> value = sharded.Fetch(key, &io);
    ASSERT_TRUE(value.ok()) << "hot key must be served from the memory tier";
    EXPECT_EQ(*value, f.store->Peek(key));
  }
  EXPECT_EQ(sharded.hot_hits(), hot_before + head.size());
  for (size_t s = 0; s < faulty.size(); ++s) {
    EXPECT_EQ(faulty[s]->fetch_count(), backend_fetches[s])
        << "shard " << s << " backend touched for a hot key";
  }

  // Batches mix tiers: hot keys from memory, cold keys from shards.
  std::vector<uint64_t> mixed = head;
  f.store->ForEachNonZero([&](uint64_t key, double) {
    if (mixed.size() < 6 && key != head[0] && key != head[1]) {
      mixed.push_back(key);
    }
  });
  std::vector<double> out(mixed.size());
  ASSERT_TRUE(sharded.FetchBatch(mixed, out, &io).ok());
  for (size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(out[i], f.store->Peek(mixed[i]));
  }

  // Rebalancing against an empty observation window demotes everything:
  // the first call consumes the window accumulated above, the second sees
  // no traffic at all and installs no tier.
  EXPECT_EQ(sharded.Rebalance().epoch, 2u);
  const RebalanceReport demoted = sharded.Rebalance();
  EXPECT_EQ(demoted.epoch, 3u);
  EXPECT_EQ(demoted.hot_ranges, 0u);
  for (uint64_t key : head) {
    EXPECT_FALSE(sharded.Fetch(key, &io).ok())
        << "demoted key must hit the (failed) backend again";
  }
}

TEST(ShardedStoreTest, HotTierTelemetrySplitsTrafficByTier) {
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 2);
  ShardedStoreOptions opts;
  opts.threads_per_shard = 0;
  opts.hot_range_bits = 3;
  opts.promote_min_fetches = 2;
  ShardedStore sharded(MakeHashShards(*f.store, router), router, opts);

  auto& registry = telemetry::MetricsRegistry::Default();
  telemetry::Counter* hot = registry.GetCounter(
      "wavebatch_sharded_tier_keys_total",
      {{"store", sharded.name()}, {"tier", "hot"}});
  telemetry::Counter* cold = registry.GetCounter(
      "wavebatch_sharded_tier_keys_total",
      {{"store", sharded.name()}, {"tier", "cold"}});
  telemetry::Gauge* hot_ranges =
      registry.GetGauge("wavebatch_sharded_hot_ranges",
                        {{"store", sharded.name()}});

  uint64_t head_key = ~uint64_t{0};
  f.store->ForEachNonZero(
      [&](uint64_t key, double) { head_key = std::min(head_key, key); });
  ASSERT_NE(head_key, ~uint64_t{0});

  const uint64_t cold_before = cold->Value();
  IoStats io;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(sharded.Fetch(head_key, &io).ok());
  EXPECT_EQ(cold->Value(), cold_before + 4);

  ASSERT_GE(sharded.Rebalance().hot_ranges, 1u);
  EXPECT_GE(hot_ranges->Value(), 1.0);

  const uint64_t hot_before = hot->Value();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(sharded.Fetch(head_key, &io).ok());
  EXPECT_EQ(hot->Value(), hot_before + 4)
      << "the head of the workload must be absorbed by the hot tier";
}

TEST(ShardedStoreTest, RebalanceConcurrentWithFetchBatchIsSafe) {
  // The TSan race surface: promotion/demotion swapping the tier while
  // sessions batch-fetch through it. Values must stay correct under every
  // interleaving (each batch pins one epoch's placement).
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  ShardedStoreOptions opts;
  opts.threads_per_shard = 1;
  opts.hot_range_bits = 3;
  opts.promote_min_fetches = 2;
  ShardedStore sharded(MakeHashShards(*f.store, router), router, opts);

  std::vector<uint64_t> keys;
  std::vector<double> expected;
  f.store->ForEachNonZero([&](uint64_t key, double value) {
    if (keys.size() < 64) {
      keys.push_back(key);
      expected.push_back(value);
    }
  });
  ASSERT_FALSE(keys.empty());

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::vector<double> out(keys.size());
      IoStats io;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!sharded.FetchBatch(keys, out, &io).ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 0; i < keys.size(); ++i) {
          if (out[i] != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    sharded.Rebalance();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(sharded.epoch(), 50u);
}

}  // namespace
}  // namespace wavebatch
