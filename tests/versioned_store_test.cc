// The versioned coefficient plane's contract: ingests are invisible until
// published, published epochs are immutable (a pinned snapshot is immune to
// every later ingest and merge), a merge is bitwise invisible to quiescent
// readers and never blocks them, and an interleaved insert/query schedule
// is bit-identical — estimates, bounds, I/O, and skip accounting — to a
// plane rebuilt by replaying the same event log to the pinned epoch, across
// all progression orders, both fault policies, and sharded bases.

#include "storage/versioned_store.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/delta_store.h"
#include "storage/fault_injection_store.h"
#include "storage/key_router.h"
#include "storage/memory_store.h"
#include "storage/sharded_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

TEST(DeltaStoreTest, ConsolidatesPerKeyAndSealsImmutably) {
  DeltaStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Seal(), nullptr);

  store.Apply(SparseVec::FromSorted({{1, 0.5}, {2, 1.0}}));
  store.Apply(SparseVec::FromSorted({{2, 0.25}, {7, -3.0}}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.ingests(), 2u);
  EXPECT_EQ(store.entries_applied(), 4u);

  auto sealed = store.Seal();
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(sealed->size(), 3u);
  EXPECT_EQ(sealed->ValueAt(1), 0.5);
  EXPECT_EQ(sealed->ValueAt(2), 1.25);
  EXPECT_EQ(sealed->ValueAt(7), -3.0);
  EXPECT_EQ(sealed->ValueAt(99), 0.0);

  // The seal is a snapshot: later writes don't leak into it.
  store.ApplyOne(1, 10.0);
  EXPECT_EQ(sealed->ValueAt(1), 0.5);

  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Seal(), nullptr);
  EXPECT_EQ(store.ingests(), 3u) << "counters survive Clear()";
}

TEST(DeltaStoreTest, SealComposesOnTopOfAMergingOverlay) {
  DeltaStore first;
  first.Apply(SparseVec::FromSorted({{1, 1.0}, {2, 2.0}}));
  auto under = first.Seal();
  ASSERT_NE(under, nullptr);

  DeltaStore second;
  second.Apply(SparseVec::FromSorted({{2, 0.5}, {3, 3.0}}));
  auto composed = second.Seal(under.get());
  ASSERT_NE(composed, nullptr);
  EXPECT_EQ(composed->ValueAt(1), 1.0);
  EXPECT_EQ(composed->ValueAt(2), 2.5);
  EXPECT_EQ(composed->ValueAt(3), 3.0);
  EXPECT_EQ(composed->ingests, 2u);

  // An empty store over a non-empty `under` still seals (the merging
  // overlay is part of every published view until the base swap).
  DeltaStore empty;
  auto carried = empty.Seal(under.get());
  ASSERT_NE(carried, nullptr);
  EXPECT_EQ(carried->ValueAt(2), 2.0);
}

TEST(DeltaStoreTest, CancelledKeysStaySealedAsExplicitZeros) {
  DeltaStore store;
  store.ApplyOne(5, 1.5);
  store.ApplyOne(5, -1.5);
  EXPECT_EQ(store.size(), 1u);
  auto sealed = store.Seal();
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(sealed->size(), 1u);
  EXPECT_EQ(sealed->ValueAt(5), 0.0);
}

/// The shared evaluation fixture (same shape as sharded_store_test): a
/// 2×16 Haar cube loaded from 500 tuples, 12 Count queries, an SSE-ranked
/// plan — plus a 120-tuple ingest stream with its per-tuple sparse deltas
/// precomputed through the strategy.
struct StreamFixture {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy{schema, WaveletKind::kHaar};
  Relation rel;
  Relation stream_rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::vector<SparseVec> deltas;  // TransformUpdate of each stream tuple

  StreamFixture()
      : rel(MakeUniformRelation(schema, 500, 3)),
        stream_rel(MakeUniformRelation(schema, 120, 77)),
        batch(schema) {
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
    plan = EvalPlan::FromMasterList(list, sse);
    for (const Tuple& t : stream_rel.tuples()) {
      deltas.push_back(strategy.TransformUpdate(t, 1.0).value());
    }
  }

  std::unique_ptr<CoefficientStore> BuildBase() const {
    return strategy.BuildStore(rel.FrequencyDistribution());
  }

  uint64_t MaxKey() const {
    auto base = BuildBase();
    uint64_t max_key = 0;
    base->ForEachNonZero(
        [&](uint64_t key, double) { max_key = std::max(max_key, key); });
    return max_key;
  }
};

/// Splits `source` into hash shards owned per `router` (copied from
/// sharded_store_test's idiom).
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

/// A merge_fn that rebuilds a ShardedStore around the same router — the
/// sharded plane's way of keeping FetchBatchRouted hints valid across
/// merges (each snapshot keeps its own base alive, so hints pin per
/// snapshot; the router itself is shared and immutable).
VersionedStoreOptions ShardedMergeOptions(const KeyRouter& router) {
  VersionedStoreOptions options;
  options.merge_fn = [router](const CoefficientStore& base,
                              const DeltaOverlay& overlay) {
    std::vector<std::unique_ptr<HashStore>> shards;
    for (size_t s = 0; s < router.num_shards(); ++s) {
      shards.push_back(std::make_unique<HashStore>());
    }
    base.ForEachNonZero([&](uint64_t key, double value) {
      shards[router.ShardOf(key)]->Add(key, value);
    });
    for (const auto& [key, value] : overlay.adds) {
      shards[router.ShardOf(key)]->Add(key, value);
    }
    std::vector<std::unique_ptr<CoefficientStore>> out;
    for (auto& shard : shards) out.push_back(std::move(shard));
    return std::make_unique<ShardedStore>(std::move(out), router,
                                          ShardedStoreOptions{});
  };
  return options;
}

TEST(VersionedStoreTest, IngestsAreInvisibleUntilPublished) {
  StreamFixture f;
  VersionedStore store(f.BuildBase());
  EXPECT_EQ(store.epoch(), 0u);

  auto pristine = store.Snapshot();
  ASSERT_NE(pristine, nullptr);
  EXPECT_EQ(pristine->epoch(), 0u);
  EXPECT_EQ(pristine->overlay(), nullptr) << "epoch 0 is the naked base";

  store.Ingest(f.deltas[0]);
  // Counted reads and aggregates still serve epoch 0.
  const uint64_t key = f.deltas[0].entries().front().key;
  const double base_value = pristine->Peek(key);
  IoStats io;
  EXPECT_EQ(store.Fetch(key, &io).value(), base_value);
  EXPECT_EQ(store.epoch(), 0u);
  // ...but the authoritative Peek sees the unpublished ingest.
  EXPECT_EQ(store.Peek(key),
            base_value + f.deltas[0].entries().front().value);

  EXPECT_EQ(store.Publish(), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.Fetch(key, &io).value(),
            base_value + f.deltas[0].entries().front().value);
  // The pre-publish pin is immune.
  EXPECT_EQ(pristine->Peek(key), base_value);
}

TEST(VersionedStoreTest, OnPublishFiresOnEveryPublishPath) {
  // Every way an epoch can be published — explicit Publish(), the
  // publish_every auto-publish, a synchronous Merge(), and a background
  // merge — must fire the on_publish callback exactly once, in epoch
  // order, off the writer lock.
  StreamFixture f;
  std::vector<uint64_t> published;
  std::mutex mu;
  VersionedStoreOptions options;
  options.publish_every = 3;
  options.on_publish = [&](uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu);
    published.push_back(epoch);
  };
  VersionedStore store(f.BuildBase(), options);

  EXPECT_EQ(store.Publish(), 1u);                          // explicit
  for (int i = 0; i < 3; ++i) store.Ingest(f.deltas[i]);   // auto at the 3rd
  store.Ingest(f.deltas[3]);
  EXPECT_EQ(store.Merge(), 3u);                            // merge republish
  store.Ingest(f.deltas[4]);
  ASSERT_TRUE(store.StartBackgroundMerge());               // background merge
  store.WaitForMerge();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(published, (std::vector<uint64_t>{1, 2, 3, 4}));
}

TEST(VersionedStoreTest, PinnedEpochIsImmuneToLaterIngestsAndMerges) {
  StreamFixture f;
  VersionedStore store(f.BuildBase());
  for (size_t i = 0; i < 10; ++i) store.Ingest(f.deltas[i]);
  store.Publish();

  auto pinned = store.Snapshot();
  std::vector<std::pair<uint64_t, double>> frozen;
  pinned->ForEachNonZero([&](uint64_t key, double value) {
    frozen.push_back({key, value});
  });
  ASSERT_FALSE(frozen.empty());

  for (size_t i = 10; i < f.deltas.size(); ++i) store.Ingest(f.deltas[i]);
  store.Publish();
  store.Merge();
  for (size_t i = 0; i < 10; ++i) store.Ingest(f.deltas[i]);
  store.Merge();

  IoStats io;
  for (const auto& [key, value] : frozen) {
    EXPECT_EQ(pinned->Peek(key), value);
    EXPECT_EQ(pinned->Fetch(key, &io).value(), value);
  }
}

TEST(VersionedStoreTest, MergeIsBitwiseInvisibleToQuiescentReaders) {
  // Db4 coefficients are irrational, so any associativity slip in the
  // merge would show up as a last-bit difference here.
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Relation rel = MakeUniformRelation(schema, 300, 5);
  Relation extra = MakeUniformRelation(schema, 50, 21);
  VersionedStore store(strategy.BuildStore(rel.FrequencyDistribution()));
  for (const Tuple& t : extra.tuples()) {
    store.Ingest(strategy.TransformUpdate(t, 1.0).value());
  }
  store.Publish();

  std::vector<uint64_t> keys;
  std::vector<double> before;
  store.ForEachNonZero([&](uint64_t key, double value) {
    keys.push_back(key);
    before.push_back(value);
  });
  const uint64_t nnz_before = store.NumNonZero();
  const double sum_abs_before = store.SumAbs();

  const uint64_t pre_merge_epoch = store.epoch();
  EXPECT_GT(store.Merge(), pre_merge_epoch);
  auto merged = store.Snapshot();
  EXPECT_EQ(merged->overlay(), nullptr) << "everything folded into the base";

  std::vector<double> after(keys.size());
  IoStats io;
  ASSERT_TRUE(store.FetchBatch(keys, after, &io).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "key " << keys[i];
  }
  EXPECT_EQ(store.NumNonZero(), nnz_before);
  // SumAbs re-accumulates in the *new* base's iteration order, so only the
  // per-key reads above are bitwise-stable across a merge; the aggregate is
  // equal up to summation-order rounding.
  EXPECT_NEAR(store.SumAbs(), sum_abs_before, 1e-9 * (1.0 + sum_abs_before));
}

TEST(VersionedStoreTest, AutoPublishBoundsSnapshotStaleness) {
  StreamFixture f;
  VersionedStoreOptions options;
  options.publish_every = 4;
  VersionedStore store(f.BuildBase(), options);
  for (size_t i = 0; i < 8; ++i) store.Ingest(f.deltas[i]);
  EXPECT_EQ(store.epoch(), 2u);
  store.Ingest(f.deltas[8]);
  EXPECT_EQ(store.epoch(), 2u) << "partial window stays unpublished";
}

TEST(VersionedStoreTest, SnapshotAnswersMatchBruteForceOverAllIngested) {
  StreamFixture f;
  VersionedStore store(f.BuildBase());
  for (const SparseVec& delta : f.deltas) store.Ingest(delta);
  store.Publish();

  Relation all(f.schema);
  for (const Tuple& t : f.rel.tuples()) all.Add(t);
  for (const Tuple& t : f.stream_rel.tuples()) all.Add(t);

  EvalSession session(f.plan, store.PinVersion());
  ASSERT_TRUE(session.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    const double expected = f.batch.queries()[q].BruteForce(all);
    EXPECT_NEAR(session.Estimates()[q], expected,
                1e-6 * (1.0 + std::abs(expected)))
        << "query " << q;
  }
}

TEST(VersionedStoreTest, SessionPinsItsEpochAtConstruction) {
  StreamFixture f;
  auto store = std::make_shared<VersionedStore>(f.BuildBase());
  for (size_t i = 0; i < 30; ++i) store->Ingest(f.deltas[i]);
  store->Publish();

  // Reference: a full run over the pinned epoch, untouched by writes.
  EvalSession reference(f.plan, store->PinVersion());
  ASSERT_TRUE(reference.RunToExact().ok());

  // Probe: starts at the same epoch, then ingests + merges land mid-run.
  EvalSession probe(f.plan, store);
  ASSERT_GT(probe.TotalSteps(), 20u);
  ASSERT_TRUE(probe.StepBatch(probe.TotalSteps() / 2).ok());
  for (size_t i = 30; i < f.deltas.size(); ++i) store->Ingest(f.deltas[i]);
  store->Publish();
  store->Merge();
  ASSERT_TRUE(probe.RunToExact().ok());

  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_EQ(probe.Estimates()[q], reference.Estimates()[q])
        << "mid-session writes leaked into query " << q;
  }
  EXPECT_EQ(probe.io(), reference.io());
}

// ---------------------------------------------------------------------------
// Golden interleaved schedules: the plane is a deterministic function of
// its event log. Sessions pinned mid-stream — and then run AFTER the rest
// of the log (more ingests, publishes, merges) has landed — must be
// bit-identical to sessions over a plane rebuilt by replaying the log
// prefix up to the pin. With fault injection on both sides, the identity
// extends to retries (kFail) and skip accounting (kSkip).

enum class EventKind { kIngest, kPublish, kMerge };
struct Event {
  EventKind kind;
  size_t tuple = 0;
};

std::vector<Event> MakeEventLog(size_t num_tuples) {
  std::vector<Event> log;
  for (size_t i = 0; i < num_tuples; ++i) {
    log.push_back({EventKind::kIngest, i});
    if ((i + 1) % 5 == 0) log.push_back({EventKind::kPublish});
    if (i == 40 || i == 90) log.push_back({EventKind::kMerge});
  }
  log.push_back({EventKind::kPublish});
  return log;
}

void ApplyEvent(VersionedStore& store, const StreamFixture& f,
                const Event& event) {
  switch (event.kind) {
    case EventKind::kIngest:
      store.Ingest(f.deltas[event.tuple]);
      break;
    case EventKind::kPublish:
      store.Publish();
      break;
    case EventKind::kMerge:
      store.Merge();
      break;
  }
}

class GoldenScheduleTest
    : public ::testing::TestWithParam<
          std::tuple<ProgressionOrder, FaultPolicy, bool>> {};

TEST_P(GoldenScheduleTest, PinnedSessionsMatchEventLogReplay) {
  const auto [order, policy, sharded] = GetParam();
  StreamFixture f;

  KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, sharded ? 4 : 1);
  auto make_plane = [&]() -> std::unique_ptr<VersionedStore> {
    if (!sharded) return std::make_unique<VersionedStore>(f.BuildBase());
    auto base = f.BuildBase();
    return std::make_unique<VersionedStore>(
        std::make_unique<ShardedStore>(MakeHashShards(*base, router), router,
                                       ShardedStoreOptions{}),
        ShardedMergeOptions(router));
  };

  const std::vector<Event> log = MakeEventLog(f.deltas.size());
  const std::vector<size_t> checkpoints = {log.size() / 3, 2 * log.size() / 3,
                                           log.size()};

  // Live pass: pin a snapshot at each checkpoint, keep streaming.
  auto live = make_plane();
  std::vector<std::shared_ptr<const SnapshotStore>> pins;
  size_t next_checkpoint = 0;
  for (size_t i = 0; i <= log.size(); ++i) {
    if (next_checkpoint < checkpoints.size() &&
        i == checkpoints[next_checkpoint]) {
      pins.push_back(live->Snapshot());
      ++next_checkpoint;
    }
    if (i < log.size()) ApplyEvent(*live, f, log[i]);
  }
  ASSERT_EQ(pins.size(), checkpoints.size());

  for (size_t c = 0; c < checkpoints.size(); ++c) {
    // Rebuild: replay the log prefix on a fresh plane.
    auto rebuilt = make_plane();
    for (size_t i = 0; i < checkpoints[c]; ++i) {
      ApplyEvent(*rebuilt, f, log[i]);
    }
    auto rebuilt_pin = rebuilt->Snapshot();
    ASSERT_EQ(pins[c]->epoch(), rebuilt_pin->epoch()) << "checkpoint " << c;

    // Identical deterministic fault schedules on both sides. The pinned
    // snapshots are immutable, so the const_cast never enables a write —
    // the decorator's pass-through Add is simply never called. The fault
    // period interacts with the 9-key lockstep batch in opposite ways per
    // policy. Under kFail the period must exceed the batch size: a faulted
    // batch is retried over the next 9 ordinals, and with period <= 9 every
    // window of 9 consecutive ordinals contains a fault, so the session
    // could never progress. Under kSkip the period must be <= the batch
    // size: a faulted batch at ordinal k (k % period == 0) falls back to 9
    // scalar fetches at ordinals k+1..k+9, and with period 13 that window
    // never reaches the next fault — the fallback would always succeed and
    // degraded mode would go unexercised. Progress is not a concern for
    // kSkip because the scalar fallback always advances.
    FaultInjectionOptions fault_options;
    fault_options.fail_every_n = policy == FaultPolicy::kSkip ? 7 : 13;
    FaultInjectionStore live_faulty(
        const_cast<CoefficientStore*>(
            static_cast<const CoefficientStore*>(pins[c].get())),
        fault_options);
    FaultInjectionStore rebuilt_faulty(
        const_cast<CoefficientStore*>(
            static_cast<const CoefficientStore*>(rebuilt_pin.get())),
        fault_options);

    EvalSession::Options options;
    options.order = order;
    options.seed = 17;
    options.fault_policy = policy;
    EvalSession live_session(f.plan, UnownedStore(live_faulty), options);
    EvalSession rebuilt_session(f.plan, UnownedStore(rebuilt_faulty), options);

    // Lockstep batches; under kFail a faulted batch leaves both sessions
    // unchanged and both fault ordinals advanced, so retries stay aligned.
    while (!live_session.Done()) {
      Result<size_t> a = live_session.StepBatch(9);
      Result<size_t> b = rebuilt_session.StepBatch(9);
      ASSERT_EQ(a.ok(), b.ok()) << "checkpoint " << c;
      if (a.ok()) {
        ASSERT_EQ(*a, *b);
      }
    }
    ASSERT_TRUE(rebuilt_session.Done());

    const double k = pins[c]->SumAbs();
    EXPECT_EQ(k, rebuilt_pin->SumAbs());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(live_session.Estimates()[q], rebuilt_session.Estimates()[q])
          << "checkpoint " << c << " query " << q;
    }
    EXPECT_EQ(live_session.WorstCaseBound(k),
              rebuilt_session.WorstCaseBound(k));
    EXPECT_EQ(live_session.ExpectedPenalty(f.schema.cell_count()),
              rebuilt_session.ExpectedPenalty(f.schema.cell_count()));
    EXPECT_EQ(live_session.io(), rebuilt_session.io());
    EXPECT_EQ(live_session.SkippedCoefficients(),
              rebuilt_session.SkippedCoefficients());
    EXPECT_EQ(live_session.SkippedImportance(),
              rebuilt_session.SkippedImportance());
    if (policy == FaultPolicy::kSkip) {
      EXPECT_GT(live_session.SkippedCoefficients(), 0u)
          << "the fault schedule must actually exercise degraded mode";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersPoliciesSharding, GoldenScheduleTest,
    ::testing::Combine(::testing::Values(ProgressionOrder::kBiggestB,
                                         ProgressionOrder::kRoundRobin,
                                         ProgressionOrder::kKeyOrder,
                                         ProgressionOrder::kRandom),
                       ::testing::Values(FaultPolicy::kFail,
                                         FaultPolicy::kSkip),
                       ::testing::Values(false, true)));

// ---------------------------------------------------------------------------
// Concurrency

TEST(VersionedStoreConcurrencyTest, BackgroundMergeNeverBlocksReadersOrWrites) {
  StreamFixture f;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool release = false;
  std::atomic<bool> folding{false};

  VersionedStoreOptions options;
  options.merge_fn = [&](const CoefficientStore& base,
                         const DeltaOverlay& overlay) {
    folding.store(true);
    {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return release; });
    }
    auto merged = std::make_unique<HashStore>();
    base.ForEachNonZero(
        [&](uint64_t key, double value) { merged->Add(key, value); });
    for (const auto& [key, value] : overlay.adds) merged->Add(key, value);
    return merged;
  };
  VersionedStore store(f.BuildBase(), options);

  for (size_t i = 0; i < 20; ++i) store.Ingest(f.deltas[i]);
  const uint64_t published = store.Publish();
  auto pre_merge = store.Snapshot();

  ThreadPool pool(1);
  ASSERT_TRUE(store.StartBackgroundMerge(&pool));
  while (!folding.load()) std::this_thread::yield();
  EXPECT_FALSE(store.StartBackgroundMerge(&pool))
      << "one merge in flight at a time";

  // With the fold gated wide open, every reader and writer path must
  // still complete: counted reads, aggregate scans, ingests, publishes.
  IoStats io;
  std::vector<uint64_t> keys;
  pre_merge->ForEachNonZero([&](uint64_t key, double) {
    if (keys.size() < 16) keys.push_back(key);
  });
  std::vector<double> out(keys.size());
  ASSERT_TRUE(store.FetchBatch(keys, out, &io).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], pre_merge->Peek(keys[i]));
  }
  for (size_t i = 20; i < 40; ++i) store.Ingest(f.deltas[i]);
  const uint64_t mid_merge_epoch = store.Publish();
  EXPECT_GT(mid_merge_epoch, published);
  // The mid-merge publish still carries the merging overlay, and with the
  // active delta just drained into it, the authoritative view and the
  // published snapshot agree on every key.
  auto mid = store.Snapshot();
  ASSERT_NE(mid->overlay(), nullptr);
  for (uint64_t key : keys) {
    EXPECT_EQ(store.Peek(key), mid->Peek(key)) << "key " << key;
  }

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  store.WaitForMerge();
  EXPECT_GT(store.epoch(), mid_merge_epoch);

  // Ingests that landed during the fold survived into the post-merge view.
  Relation all(f.schema);
  for (const Tuple& t : f.rel.tuples()) all.Add(t);
  for (size_t i = 0; i < 40; ++i) all.Add(f.stream_rel.tuples()[i]);
  EvalSession session(f.plan, store.PinVersion());
  ASSERT_TRUE(session.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    const double expected = f.batch.queries()[q].BruteForce(all);
    EXPECT_NEAR(session.Estimates()[q], expected,
                1e-6 * (1.0 + std::abs(expected)));
  }
}

TEST(VersionedStoreConcurrencyTest, OneWriterManyPinnedReadersUnderTsan) {
  // The TSan race surface: one writer ingesting, publishing, and
  // background-merging while ≥4 readers pin epochs and run full
  // progressive sessions. Each reader's estimates must match a serial
  // re-run over the very snapshot it pinned — pinned epochs are stable
  // under every interleaving.
  StreamFixture f;
  auto store = std::make_shared<VersionedStore>(f.BuildBase());
  ThreadPool merge_pool(1);

  struct PinnedRun {
    std::shared_ptr<const SnapshotStore> snap;
    std::vector<double> estimates;
    IoStats io;
  };
  std::atomic<bool> stop{false};
  std::mutex runs_mu;
  std::vector<PinnedRun> runs;

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = store->Snapshot();
        EvalSession session(f.plan, snap);
        if (!session.RunToExact().ok()) continue;
        std::lock_guard<std::mutex> lock(runs_mu);
        if (runs.size() < 64) {
          runs.push_back({snap, session.Estimates(), session.io()});
        }
      }
    });
  }

  for (size_t i = 0; i < f.deltas.size(); ++i) {
    store->Ingest(f.deltas[i]);
    if ((i + 1) % 10 == 0) store->Publish();
    if ((i + 1) % 25 == 0) store->StartBackgroundMerge(&merge_pool);
  }
  store->Publish();
  store->WaitForMerge();
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  ASSERT_FALSE(runs.empty());
  for (const PinnedRun& run : runs) {
    EvalSession replay(f.plan, run.snap);
    ASSERT_TRUE(replay.RunToExact().ok());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(run.estimates[q], replay.Estimates()[q])
          << "epoch " << run.snap->epoch() << " query " << q;
    }
    EXPECT_EQ(run.io, replay.io());
  }
}

}  // namespace
}  // namespace wavebatch
