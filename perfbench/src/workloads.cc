#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "checks.h"
#include "cube/dense_cube.h"
#include "cube/relation.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "layers.h"
#include "penalty/sse.h"
#include "server/query_service.h"
#include "stats.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "storage/versioned_store.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/metrics.h"
#include "timing_store.h"
#include "util/check.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using wavebatch::CoefficientStore;
using wavebatch::DenseCube;
using wavebatch::EvalPlan;
using wavebatch::EvalSession;
using wavebatch::QueryBatch;
using wavebatch::Range;
using wavebatch::RangeSumQuery;
using wavebatch::Rng;
using wavebatch::SnapshotStore;
using wavebatch::SsePenalty;
using wavebatch::TemperatureDatasetOptions;
using wavebatch::VersionedStore;
using wavebatch::WaveletStrategy;
using wavebatch::server::QueryRequest;
using wavebatch::server::QueryResponse;
using wavebatch::server::QueryService;
using wavebatch::telemetry::MetricsRegistry;

enum class Kind { kHot, kCold, kIngest };

// ---------------------------------------------------------------------------
// Workload sizes. They are fixed; --seed changes the cube's records, the
// arrival times, the Zipf draws, the ad-hoc batches and the ingested tuples,
// but not the dashboard panels, whose plan sizes set the work per request.
// NOTES.md explains each choice.

constexpr size_t kWorkers = 2;       // QueryService worker threads
// Latency and throughput are medians over up to kSubWindows slices of the
// window, each holding at least kSliceAnswers answers (10 beyond its p99).
constexpr size_t kSubWindows = 12;
constexpr size_t kSliceAnswers = 1000;
constexpr size_t kSetups = 9;        // setup_s is the median of these
constexpr size_t kTemplates = 16;    // hot_dashboard / ingest_progressive
constexpr double kZipfS = 1.1;

// hot_dashboard: open-loop Poisson, exact answers over a DenseStore.
constexpr double kHotRate = 200.0;  // requests/s

// cold_adhoc: closed loop, fresh random batch per request, FileStore.
constexpr size_t kColdClients = 2;
constexpr size_t kColdQueries = 8;  // range-sums per batch
constexpr size_t kColdWarmup = 8;   // untimed requests (page cache, code)

// ingest_progressive: open-loop reads to a Theorem-1 target, plus a writer.
constexpr double kIngestRate = 200.0;       // read requests/s
// The bound falls by ~1e4 within the first 200 retrievals of a panel, so
// the target sits deep and each read steps in small quanta: a read takes
// several scheduler turns, interleaved with its siblings and with epochs.
constexpr double kTargetFraction = 1e-5;    // of the starting bound
constexpr size_t kIngestQuantum = 32;       // coefficients per quantum
constexpr double kTupleRate = 250.0;        // tuples/s
constexpr uint64_t kPublishEvery = 50;      // tuples per Publish (P)
constexpr uint64_t kMergeEvery = 5;         // publishes per Merge (M)
constexpr size_t kKeptSnapshots = 8;        // epochs retained for checks
constexpr size_t kMaxBoundChecks = 400;

TemperatureDatasetOptions DataFor(Kind kind, uint64_t seed) {
  // lat x lon x alt x time x temp. The cube size sets the K scan (SumAbs)
  // every new serving group pays under the service lock; cold_adhoc and
  // ingest_progressive keep it small so that plan builds and epochs, not
  // that scan, dominate their latency.
  TemperatureDatasetOptions data;
  data.lat_size = kind == Kind::kIngest ? 32 : 64;
  data.lon_size = 32;
  data.alt_size = 8;
  data.time_size = kind == Kind::kHot ? 8 : 4;
  data.temp_size = kind == Kind::kHot ? 8 : 4;
  data.num_records = kind == Kind::kIngest ? 200000 : 500000;
  data.seed = seed;
  return data;
}

// Seeds of the independent random streams drawn from --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// User + system CPU time of the whole process so far, in ms.
double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Range Box(const wavebatch::Schema& schema,
          std::vector<wavebatch::Interval> intervals) {
  wavebatch::Result<Range> range = Range::Create(schema, std::move(intervals));
  WB_CHECK(range.ok()) << range.status();
  return range.value();
}

wavebatch::Interval Full(const wavebatch::Schema& schema, size_t dim) {
  return {0, schema.dim(dim).size - 1};
}

// A HashStore copy of `view`: the base of a VersionedStore.
std::unique_ptr<CoefficientStore> HashCopy(const CoefficientStore& view) {
  auto copy = std::make_unique<wavebatch::HashStore>();
  view.ForEachNonZero([&](uint64_t key, double v) { copy->Add(key, v); });
  return copy;
}

// Dashboard panels: a lat x lon grid of SUM(temp) cells over a latitude
// window that slides a little per panel, so neighbouring panels overlap in
// most of their coefficients. Panel t is the t-th most popular.
std::vector<QueryBatch> MakePanels(const wavebatch::Schema& schema,
                                   size_t lat_parts, size_t lon_parts) {
  const uint32_t lat = schema.dim(wavebatch::kLat).size;
  const uint32_t width = lat / 2;
  const uint32_t stride = (lat - width) / kTemplates;
  std::vector<QueryBatch> panels;
  const std::vector<size_t> parts = {lat_parts, lon_parts, 1, 1, 1};
  for (size_t t = 0; t < kTemplates; ++t) {
    const uint32_t lo = static_cast<uint32_t>(t) * stride;
    std::vector<wavebatch::Interval> box = {{lo, lo + width - 1}};
    for (size_t d = 1; d < schema.num_dims(); ++d) box.push_back(Full(schema, d));
    panels.push_back(wavebatch::MakeDrillDownWorkload(
                         schema, Box(schema, box), parts,
                         wavebatch::CellAggregate::kSum, wavebatch::kTemp,
                         /*seed=*/100 + t, /*random_cuts=*/true,
                         /*min_width=*/1, /*measure_offset=*/53.33)
                         .batch);
  }
  return panels;
}

// An ad-hoc batch: kColdQueries SUM(temp) range-sums over random
// latitude x longitude boxes (other dimensions whole). Request `index` of
// a run always gets the same batch, so the checker can regenerate it.
QueryBatch MakeAdhocBatch(const wavebatch::Schema& schema, uint64_t seed,
                          uint64_t index) {
  Rng rng(StreamSeed(seed, 1000003 + index));
  QueryBatch batch(schema);
  auto interval = [&](size_t dim, uint32_t max_width) {
    const uint32_t size = schema.dim(dim).size;
    const uint32_t width =
        1 + static_cast<uint32_t>(rng.UniformInt(std::min(size, max_width)));
    const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(size - width + 1));
    return wavebatch::Interval{lo, lo + width - 1};
  };
  for (size_t q = 0; q < kColdQueries; ++q) {
    std::vector<wavebatch::Interval> box = {interval(wavebatch::kLat, 16),
                                            interval(wavebatch::kLon, 8)};
    for (size_t d = 2; d < schema.num_dims(); ++d) box.push_back(Full(schema, d));
    batch.Add(RangeSumQuery::Sum(Box(schema, box), wavebatch::kTemp));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Request bookkeeping.

struct Slot {
  Clock::time_point due;   // scheduled send time
  Clock::time_point sent;  // Submit call
  Clock::time_point done;  // callback
  uint64_t batch = 0;      // template index, or ad-hoc batch index
  bool shed = false;
  bool answered = false;
  QueryResponse response;
};

// Fixed-capacity slot table shared by the generator and the callbacks.
class Recorder {
 public:
  explicit Recorder(size_t capacity) : slots_(capacity) {}

  /// Index of a fresh slot, or nullopt when the table is full.
  std::optional<size_t> Claim() {
    std::lock_guard<std::mutex> lock(mu_);
    if (claimed_ == slots_.size()) return std::nullopt;
    return claimed_++;
  }
  Slot& slot(size_t i) { return slots_[i]; }

  void Answer(size_t i, QueryResponse response, Clock::time_point now) {
    // The timeline is not checked and would dominate memory in traced runs.
    response.timeline = {};
    std::lock_guard<std::mutex> lock(mu_);
    slots_[i].done = now;
    slots_[i].response = std::move(response);
    slots_[i].answered = true;
    ++finished_;
    cv_.notify_all();
  }
  void Shed(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[i].shed = true;
    ++finished_;
    cv_.notify_all();
  }

  /// Waits until every claimed slot is answered or shed. False on timeout.
  bool Drain(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return finished_ == claimed_; });
  }

  /// The claimed slots (call after Drain and after the service stopped).
  std::vector<Slot> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.resize(claimed_);
    return std::move(slots_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  size_t claimed_ = 0;
  size_t finished_ = 0;
};

// generation -> published epoch snapshot, filled from on_publish. Only every
// keep_every-th generation keeps its snapshot: a snapshot pins its base
// store, and every merge makes a new one.
struct EpochBook {
  std::mutex mu;
  QueryService* service = nullptr;
  VersionedStore* store = nullptr;
  uint64_t keep_every = 1;
  std::map<uint64_t, std::shared_ptr<const SnapshotStore>> kept;

  void OnPublish() {
    if (service == nullptr) return;
    service->RefreshEpoch();
    const uint64_t generation = service->generation();
    std::lock_guard<std::mutex> lock(mu);
    if ((generation - 1) % keep_every == 0) kept[generation] = store->Snapshot();
  }
};

// Writer-side measurements of ingest_progressive.
struct WriterStats {
  std::vector<double> write_us;
  std::vector<double> update_us;
  std::vector<double> update_entries;
  std::vector<double> publish_us;
  std::vector<double> merge_ms;
  std::vector<double> overlay_entries;
  uint64_t tuples = 0;
};

// Everything one pass sets up. The service is declared last so it is
// destroyed first: its workers and the on_publish hook reference the rest.
struct Env {
  Kind kind = Kind::kHot;
  uint64_t seed = 0;
  std::unique_ptr<DenseCube> cube;
  std::shared_ptr<const WaveletStrategy> strategy;
  std::shared_ptr<const SsePenalty> sse;
  std::shared_ptr<const CoefficientStore> dense;  // the transformed view
  std::shared_ptr<VersionedStore> versioned;      // ingest_progressive
  std::shared_ptr<EpochBook> book;                // ingest_progressive
  std::string file_path;                          // cold_adhoc
  std::shared_ptr<FetchLedger> ledger;
  std::shared_ptr<TimingStore> served;
  std::vector<QueryBatch> templates;
  std::vector<double> targets;  // ingest_progressive target bounds
  std::unique_ptr<wavebatch::Relation> tuples;
  uint64_t warm_hits = 0, warm_misses = 0;
  uint64_t warm_plan_hits = 0, warm_plan_misses = 0;
  std::unique_ptr<QueryService> service;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    service.reset();
    if (!file_path.empty()) std::remove(file_path.c_str());
  }

  QueryRequest Request(uint64_t batch) const {
    if (kind == Kind::kCold) {
      QueryRequest request(MakeAdhocBatch(cube->schema(), seed, batch));
      request.penalty = sse;
      return request;
    }
    QueryRequest request(templates[batch]);
    request.penalty = sse;
    if (kind == Kind::kIngest) {
      request.target_bound = targets[batch];
      request.quantum = kIngestQuantum;
    }
    return request;
  }
};

// Submits `batches` one at a time and waits for each (untimed warm-up).
void WarmUp(Env& env, const std::vector<uint64_t>& batches) {
  for (uint64_t b : batches) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    const wavebatch::Status submitted =
        env.service->Submit(env.Request(b), [&](QueryResponse response) {
          std::lock_guard<std::mutex> lock(mu);
          ok = response.status.ok();
          done = true;
          cv.notify_all();
        });
    WB_CHECK(submitted.ok()) << submitted;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    WB_CHECK(ok) << "warm-up request failed";
  }
}

std::unique_ptr<Env> Setup(Kind kind, uint64_t seed, double seconds,
                           const std::string& workdir) {
  auto env = std::make_unique<Env>();
  env->kind = kind;
  env->seed = seed;
  env->cube = std::make_unique<DenseCube>(
      wavebatch::MakeTemperatureCube(DataFor(kind, seed)));
  const wavebatch::Schema& schema = env->cube->schema();
  env->strategy = std::make_shared<WaveletStrategy>(schema,
                                                    wavebatch::WaveletKind::kHaar);
  env->sse = std::make_shared<SsePenalty>();
  env->dense = env->strategy->BuildStore(*env->cube);
  env->ledger = std::make_shared<FetchLedger>();

  std::shared_ptr<const CoefficientStore> backend;
  if (kind == Kind::kCold) {
    std::vector<double> values(env->cube->size(), 0.0);
    env->dense->ForEachNonZero([&](uint64_t key, double v) { values[key] = v; });
    env->file_path = workdir + "/adhoc-" + std::to_string(getpid()) + ".coef";
    auto file = wavebatch::FileStore::Create(env->file_path, values);
    WB_CHECK(file.ok()) << file.status();
    backend = std::move(file).value();
  } else if (kind == Kind::kIngest) {
    env->book = std::make_shared<EpochBook>();
    wavebatch::VersionedStoreOptions options;
    options.on_publish = [book = env->book](uint64_t) { book->OnPublish(); };
    env->versioned = std::make_shared<VersionedStore>(HashCopy(*env->dense),
                                                      std::move(options));
    backend = env->versioned;
  } else {
    backend = env->dense;
  }
  env->served = std::make_shared<TimingStore>(backend, env->ledger);

  if (kind != Kind::kCold) {
    // Ingest panels are 8x4 so that the smaller cube still needs several
    // quanta to reach the target bound.
    env->templates = kind == Kind::kHot ? MakePanels(schema, 4, 4)
                                        : MakePanels(schema, 8, 4);
  }
  if (kind == Kind::kIngest) {
    // Target = a fixed fraction of each template's Theorem-1 bound before
    // its first retrieval, on the pristine epoch.
    std::shared_ptr<const SnapshotStore> snapshot = env->versioned->Snapshot();
    const double k = snapshot->SumAbs();
    for (const QueryBatch& batch : env->templates) {
      auto plan = EvalPlan::Build(batch, *env->strategy, env->sse);
      WB_CHECK(plan.ok()) << plan.status();
      EvalSession session(plan.value(), snapshot);
      env->targets.push_back(kTargetFraction * session.WorstCaseBound(k));
    }
    TemperatureDatasetOptions stream = DataFor(kind, StreamSeed(seed, 3));
    stream.num_records =
        static_cast<uint64_t>(kTupleRate * seconds * 1.1) + 1000;
    env->tuples = std::make_unique<wavebatch::Relation>(
        wavebatch::MakeTemperatureDataset(stream));
    const double expected_generations =
        seconds * kTupleRate / static_cast<double>(kPublishEvery) *
        (1.0 + 1.0 / static_cast<double>(kMergeEvery));
    env->book->keep_every = std::max<uint64_t>(
        1, static_cast<uint64_t>(expected_generations / kKeptSnapshots));
    env->book->store = env->versioned.get();
    env->book->kept[1] = snapshot;  // generation 1 = epoch at construction
  }

  env->service = std::make_unique<QueryService>(env->served, env->strategy);
  if (env->book != nullptr) env->book->service = env->service.get();
  env->service->Start(kWorkers);

  // Warm-up: hot plans into the plan cache, the coefficient file into the
  // page cache, and the code paths of every workload.
  std::vector<uint64_t> warm;
  if (kind == Kind::kCold) {
    (void)env->served->SumAbs();  // sequential scan of the file
    for (uint64_t i = 0; i < kColdWarmup; ++i) warm.push_back(~uint64_t{0} - i);
  } else {
    for (uint64_t t = 0; t < kTemplates; ++t) warm.push_back(t);
  }
  WarmUp(*env, warm);
  env->warm_hits = env->service->shared_hits();
  env->warm_misses = env->service->shared_misses();
  env->warm_plan_hits = env->service->plan_cache().hits();
  env->warm_plan_misses = env->service->plan_cache().misses();
  return env;
}

// ---------------------------------------------------------------------------
// The timed window.

struct WindowResult {
  Clock::time_point start;
  Clock::time_point end;
  std::vector<Slot> slots;
  bool drained = true;
  WriterStats writer;
  uint64_t hits = 0, misses = 0;            // shared-fetch ledger, window
  uint64_t plan_hits = 0, plan_misses = 0;  // plan cache, window
  double cpu_ms = 0.0;  // process CPU time from window start to drain
};

// rate * seconds arrivals with exponential gaps, rescaled to span the
// window: Poisson burstiness, but the same request count for every seed.
std::vector<Clock::time_point> PoissonSchedule(uint64_t seed, double rate,
                                               Clock::time_point start,
                                               double seconds) {
  Rng rng(StreamSeed(seed, 4));
  const size_t n = static_cast<size_t>(rate * seconds);
  std::vector<double> at(n);
  double t = 0.0;
  for (double& a : at) {
    t += -std::log(std::max(1e-12, 1.0 - rng.UniformDouble()));
    a = t;
  }
  // One more gap closes the window, so the last arrival is not at its end.
  t += -std::log(std::max(1e-12, 1.0 - rng.UniformDouble()));
  std::vector<Clock::time_point> due;
  due.reserve(n);
  for (double a : at) {
    due.push_back(start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(a / t * seconds)));
  }
  return due;
}

// The ingest writer: TransformUpdate + Ingest per tuple, Publish every
// kPublishEvery tuples, Merge every kMergeEvery publishes. `wait(i)` paces
// tuple i and returns false to stop.
void WriteTuples(VersionedStore& store, const WaveletStrategy& strategy,
                 const wavebatch::Relation& tuples,
                 const std::function<bool(uint64_t)>& wait,
                 WriterStats* stats) {
  uint64_t publishes = 0;
  for (uint64_t i = 0; wait(i); ++i) {
    const wavebatch::Tuple& tuple = tuples.tuple(i % tuples.num_tuples());
    const Clock::time_point begin = Clock::now();
    wavebatch::Result<wavebatch::SparseVec> delta =
        strategy.TransformUpdate(tuple, 1.0);
    WB_CHECK(delta.ok()) << delta.status();
    const Clock::time_point transformed = Clock::now();
    store.Ingest(delta.value());
    bool merge_due = false;
    if ((i + 1) % kPublishEvery == 0) {
      const Clock::time_point publish_begin = Clock::now();
      store.Publish();
      stats->publish_us.push_back(
          1e3 * MsBetween(publish_begin, Clock::now()));
      merge_due = ++publishes % kMergeEvery == 0;
    }
    const Clock::time_point finished = Clock::now();
    stats->write_us.push_back(1e3 * MsBetween(begin, finished));
    stats->update_us.push_back(1e3 * MsBetween(begin, transformed));
    stats->update_entries.push_back(
        static_cast<double>(delta.value().size()));
    ++stats->tuples;
    if (merge_due) {
      const Clock::time_point merge_begin = Clock::now();
      store.Merge();
      stats->merge_ms.push_back(MsBetween(merge_begin, Clock::now()));
    }
    if (i % 16 == 0) {
      stats->overlay_entries.push_back(
          static_cast<double>(store.delta_entries()));
    }
  }
}

WindowResult RunWindow(Env& env, double seconds) {
  WindowResult out;
  QueryService& service = *env.service;
  Rng pick(StreamSeed(env.seed, 5));
  // Short lead so the first arrivals are not already late.
  out.start = Clock::now() + std::chrono::milliseconds(20);
  const double cpu_begin = ProcessCpuMs();
  out.end = out.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));

  // Callbacks reach these until service.Stop() below returns.
  std::unique_ptr<Recorder> recorder;
  std::atomic<uint64_t> next_batch{0};
  std::function<void(Clock::time_point)> send;
  std::thread writer;
  if (env.kind == Kind::kIngest) {
    writer = std::thread([&] {
      const auto gap = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kTupleRate));
      WriteTuples(
          *env.versioned, *env.strategy, *env.tuples,
          [&](uint64_t i) {
            const Clock::time_point due = out.start + gap * static_cast<int64_t>(i);
            if (due >= out.end) return false;
            std::this_thread::sleep_until(due);
            return true;
          },
          &out.writer);
    });
  }

  if (env.kind == Kind::kCold) {
    // Closed loop: each client sends its next request from the previous
    // request's callback; that moment is the next request's due time.
    recorder = std::make_unique<Recorder>(60000);
    send = [&](Clock::time_point due) {
      if (due >= out.end) return;
      std::optional<size_t> index = recorder->Claim();
      if (!index) return;
      Slot& slot = recorder->slot(*index);
      slot.due = due;
      slot.batch = next_batch.fetch_add(1);
      QueryRequest request = env.Request(slot.batch);
      slot.sent = Clock::now();
      const size_t i = *index;
      const wavebatch::Status status =
          service.Submit(std::move(request), [&, i](QueryResponse response) {
            const Clock::time_point now = Clock::now();
            recorder->Answer(i, std::move(response), now);
            send(now);
          });
      if (!status.ok()) recorder->Shed(i);
    };
    std::this_thread::sleep_until(out.start);
    for (size_t c = 0; c < kColdClients; ++c) send(out.start);
    std::this_thread::sleep_until(out.end);
  } else {
    const double rate = env.kind == Kind::kHot ? kHotRate : kIngestRate;
    const std::vector<Clock::time_point> schedule =
        PoissonSchedule(env.seed, rate, out.start, seconds);
    recorder = std::make_unique<Recorder>(schedule.size());
    for (const Clock::time_point due : schedule) {
      const size_t i = recorder->Claim().value();
      Slot& slot = recorder->slot(i);
      slot.due = due;
      slot.batch = pick.Zipf(kTemplates, kZipfS);
      QueryRequest request = env.Request(slot.batch);
      std::this_thread::sleep_until(due);
      slot.sent = Clock::now();
      const wavebatch::Status status = service.Submit(
          std::move(request), [&recorder, i](QueryResponse response) {
            recorder->Answer(i, std::move(response), Clock::now());
          });
      if (!status.ok()) recorder->Shed(i);
    }
  }
  if (writer.joinable()) writer.join();
  out.drained = recorder->Drain(std::chrono::seconds(60));
  out.cpu_ms = ProcessCpuMs() - cpu_begin;
  service.Stop();
  out.hits = service.shared_hits() - env.warm_hits;
  out.misses = service.shared_misses() - env.warm_misses;
  out.plan_hits = service.plan_cache().hits() - env.warm_plan_hits;
  out.plan_misses = service.plan_cache().misses() - env.warm_plan_misses;
  // A stuck request: destroying the service fails it, and its callback must
  // run while the recorder is still alive. It then counts as failed.
  if (!out.drained) env.service.reset();
  out.slots = recorder->Take();
  return out;
}

// ---------------------------------------------------------------------------
// Checks.

struct CheckResult {
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(const Slot& slot, const std::string& what) {
    ++failed;
    if (notes.size() < 5) {
      notes.push_back("check failed (batch " + std::to_string(slot.batch) +
                      "): " + what);
    }
  }
};

// Perturbs one answer so the checks must catch it (--corrupt).
void Corrupt(Env& env, std::vector<Slot>& slots) {
  for (Slot& slot : slots) {
    QueryResponse& r = slot.response;
    if (!slot.answered || !r.status.ok() || r.estimates.empty()) continue;
    if (env.kind == Kind::kIngest) {
      if (env.book->kept.count(r.generation) == 0) continue;
      r.estimates[0] += 10.0 * std::sqrt(r.worst_case_bound) + 1.0;
    } else {
      r.estimates[0] += 1.0 + 1e-3 * std::fabs(r.estimates[0]);
    }
    return;
  }
}

CheckResult CheckAnswers(Env& env, const std::vector<Slot>& slots) {
  CheckResult out;
  const DenseCube& cube = *env.cube;
  std::map<uint64_t, std::vector<double>> oracle;  // template -> answers
  std::map<std::pair<uint64_t, uint64_t>, std::vector<double>> reference;
  size_t bound_checks = 0;

  if (env.kind == Kind::kIngest) {
    // The epoch-1 reference must itself agree with the oracle on the
    // generating cube before it can judge anything.
    const auto& first = env.book->kept.at(1);
    for (size_t t = 0; t < env.templates.size(); ++t) {
      auto plan = EvalPlan::Build(env.templates[t], *env.strategy, env.sse);
      WB_CHECK(plan.ok());
      EvalSession session(plan.value(), first);
      WB_CHECK(session.RunToExact().ok());
      const std::string bad =
          CheckExact(session.Estimates(), env.templates[t].BruteForce(cube));
      if (!bad.empty()) {
        ++out.failed;
        out.notes.push_back("epoch-0 reference disagrees with the oracle: " +
                            bad);
      }
    }
  }

  // Ad-hoc oracles are the bulk of the checking time: compute them on the
  // shared pool (the window is over, nothing else is running).
  std::vector<std::vector<double>> adhoc(env.kind == Kind::kCold ? slots.size()
                                                                 : 0);
  wavebatch::ThreadPool::Shared().ParallelFor(
      adhoc.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (!slots[i].answered) continue;
          adhoc[i] = MakeAdhocBatch(cube.schema(), env.seed, slots[i].batch)
                         .BruteForce(cube);
        }
      });

  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    if (slot.shed) continue;  // counted by the caller
    if (!slot.answered) continue;
    const QueryResponse& r = slot.response;
    if (!r.status.ok()) continue;
    if (env.kind != Kind::kIngest) {
      if (!r.exact) {
        out.Fail(slot, "answer is not exact");
        continue;
      }
      const std::vector<double>* truth = nullptr;
      if (env.kind == Kind::kCold) {
        truth = &adhoc[i];
      } else {
        auto it = oracle.find(slot.batch);
        if (it == oracle.end()) {
          it = oracle.emplace(slot.batch,
                              env.templates[slot.batch].BruteForce(cube))
                   .first;
        }
        truth = &it->second;
      }
      const std::string bad = CheckExact(r.estimates, *truth);
      if (!bad.empty()) out.Fail(slot, bad);
      continue;
    }
    // ingest_progressive: complete means the target bound was reached.
    if (!r.exact && !(r.worst_case_bound <= env.targets[slot.batch])) {
      out.Fail(slot, "completed above its target bound");
      continue;
    }
    auto kept = env.book->kept.find(r.generation);
    if (kept == env.book->kept.end() || bound_checks >= kMaxBoundChecks) {
      continue;
    }
    ++bound_checks;
    const auto key = std::make_pair(r.generation, slot.batch);
    auto it = reference.find(key);
    if (it == reference.end()) {
      auto plan =
          EvalPlan::Build(env.templates[slot.batch], *env.strategy, env.sse);
      WB_CHECK(plan.ok());
      EvalSession session(plan.value(), kept->second);
      WB_CHECK(session.RunToExact().ok());
      it = reference.emplace(key, session.Estimates()).first;
    }
    const std::string bad =
        CheckBoundEncloses(*env.sse, r.estimates, it->second,
                           r.worst_case_bound);
    if (!bad.empty()) out.Fail(slot, bad);
  }
  if (env.kind == Kind::kIngest && bound_checks == 0) {
    ++out.failed;
    out.notes.push_back("no response fell on a retained epoch");
  }
  return out;
}

// ---------------------------------------------------------------------------
// One pass = set-up, window, checks.

struct PassResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  std::vector<double> latency_ms;  // OK answers
  // Medians over equal slices of the window (see kSubWindows): one burst
  // moves one slice's p99, not the run's.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double throughput_rps = 0.0;
  double retrievals_per_req = 0.0;
  double backend_keys_per_req = 0.0;
  double cpu_ms_per_req = 0.0;
  std::vector<double> send_lag_us;
  std::vector<RequestTiming> timings;  // OK answers
  std::map<uint64_t, double> batch_requests;
  std::set<uint64_t> generations;
  double mean_steps = 0.0;
};

PassResult Summarize(const WindowResult& window, const CheckResult& checks) {
  PassResult out;
  out.attempted = window.slots.size();
  out.failed = checks.failed;
  out.notes = checks.notes;
  if (!window.drained) out.notes.push_back("requests still open after 60 s");
  double retrievals = 0.0;
  double steps = 0.0;
  size_t answered_ok = 0;
  for (const Slot& slot : window.slots) {
    answered_ok += slot.answered && slot.response.status.ok();
  }
  const size_t slices =
      std::clamp<size_t>(answered_ok / kSliceAnswers, 1, kSubWindows);
  const Clock::duration slice =
      (window.end - window.start) / static_cast<int64_t>(slices);
  std::vector<std::vector<double>> slice_latency(slices);
  std::vector<double> slice_done(slices, 0.0);
  for (const Slot& slot : window.slots) {
    out.send_lag_us.push_back(1e3 * MsBetween(slot.due, slot.sent));
    if (slot.shed || !slot.answered || !slot.response.status.ok()) {
      ++out.failed;
      continue;
    }
    out.latency_ms.push_back(MsBetween(slot.due, slot.done));
    const auto due_slice =
        static_cast<size_t>((slot.due - window.start) / slice);
    slice_latency[std::min(due_slice, slices - 1)].push_back(
        out.latency_ms.back());
    if (slot.done >= window.start && slot.done < window.end) {
      const auto done_slice =
          static_cast<size_t>((slot.done - window.start) / slice);
      slice_done[std::min(done_slice, slices - 1)] += 1.0;
    }
    retrievals += static_cast<double>(slot.response.io.retrievals);
    steps += static_cast<double>(slot.response.total_steps);
    out.timings.push_back(
        RequestTiming{slot.response.request_id, slot.due, slot.done});
    out.batch_requests[slot.batch] += 1.0;
    out.generations.insert(slot.response.generation);
  }
  const double answered = static_cast<double>(out.latency_ms.size());
  std::vector<double> p50, p99;
  for (const std::vector<double>& latency : slice_latency) {
    p50.push_back(Percentile(latency, 0.50));
    p99.push_back(Percentile(latency, 0.99));
  }
  out.latency_p50_ms = Median(p50);
  out.latency_p99_ms = Median(p99);
  out.throughput_rps =
      Median(slice_done) / std::chrono::duration<double>(slice).count();
  out.retrievals_per_req = Ratio(retrievals, answered);
  out.backend_keys_per_req = Ratio(static_cast<double>(window.misses), answered);
  out.cpu_ms_per_req = Ratio(window.cpu_ms, answered);
  out.mean_steps = Ratio(steps, answered);
  return out;
}

void Add(Report& report, const std::string& name, const std::string& unit,
         double value) {
  report.metrics.push_back(Metric{name, unit, value});
}

void Absorb(Report& report, const PassResult& pass) {
  report.attempted += pass.attempted;
  report.failed += pass.failed;
  for (const std::string& note : pass.notes) report.notes.push_back(note);
}

Kind KindOf(const std::string& name) {
  if (name == "hot_dashboard") return Kind::kHot;
  if (name == "cold_adhoc") return Kind::kCold;
  WB_CHECK(name == "ingest_progressive") << "unknown workload " << name;
  return Kind::kIngest;
}

Report RunEndToEnd(const RunOptions& options, Kind kind) {
  Report report;
  MetricsRegistry::Disable();
  // Set-up is timed kSetups times (single set-ups vary by +-20%); the last
  // environment serves the window.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (size_t rep = 0; rep < kSetups; ++rep) {
    env.reset();
    const Clock::time_point begin = Clock::now();
    env = Setup(kind, options.seed, options.seconds, options.workdir);
    setup_s.push_back(MsBetween(begin, Clock::now()) / 1e3);
  }
  WindowResult window = RunWindow(*env, options.seconds);
  if (options.corrupt) Corrupt(*env, window.slots);
  const PassResult pass = Summarize(window, CheckAnswers(*env, window.slots));
  Absorb(report, pass);
  Add(report, "setup_s", "s", Median(setup_s));
  Add(report, "cpu_ms_per_req", "ms", pass.cpu_ms_per_req);
  Add(report, "retrievals_per_req", "keys", pass.retrievals_per_req);
  Add(report, "backend_keys_per_req", "keys", pass.backend_keys_per_req);
  Add(report, "peak_rss_mb", "MB", PeakRssMb());
  // Reported by name and unit but not bounded (NOTES.md explains why).
  auto note = [&](const std::string& name, double value,
                  const std::string& unit) {
    std::ostringstream line;
    line << name << " = " << value << " " << unit;
    report.notes.push_back(line.str());
  };
  note("latency_p50_ms", pass.latency_p50_ms, "ms");
  note("latency_p99_ms", pass.latency_p99_ms, "ms");
  note("throughput_rps", pass.throughput_rps, "1/s");
  note("fail_frac",
       Ratio(static_cast<double>(report.failed),
             static_cast<double>(report.attempted)),
       "ratio");
  std::ostringstream sizes;
  sizes << "set-ups (s):";
  for (double t : setup_s) sizes << " " << t;
  sizes << "; cube cells " << env->cube->size() << ", answered "
        << pass.latency_ms.size();
  report.notes.push_back(sizes.str());
  return report;
}

Report RunTraced(const RunOptions& options, Kind kind) {
  Report report;
  const double half = options.seconds / 2.0;

  // Pass A: untraced reference for the telemetry overhead.
  MetricsRegistry::Disable();
  double untraced_p50 = 0.0;
  double untraced_p99 = 0.0;
  double untraced_rps = 0.0;
  {
    std::unique_ptr<Env> env =
        Setup(kind, options.seed, half, options.workdir);
    WindowResult window = RunWindow(*env, half);
    const PassResult pass = Summarize(window, CheckAnswers(*env, window.slots));
    Absorb(report, pass);
    untraced_p50 = pass.latency_p50_ms;
    untraced_p99 = pass.latency_p99_ms;
    untraced_rps = pass.throughput_rps;
  }

  // Pass B: traced.
  MetricsRegistry& registry = MetricsRegistry::Default();
  MetricsRegistry::Enable();
  registry.ResetValues();
  registry.SetSpanCapacity(size_t{1} << 20);
  const uint64_t dropped_before = registry.dropped_spans();
  const Clock::time_point span_epoch = CalibrateSpanClock();
  std::unique_ptr<Env> env = Setup(kind, options.seed, half, options.workdir);
  env->ledger->recording.store(true);
  WindowResult window = RunWindow(*env, half);
  env->ledger->recording.store(false);
  const std::vector<wavebatch::telemetry::SpanEvent> spans = registry.Spans();
  const uint64_t dropped = registry.dropped_spans() - dropped_before;
  MetricsRegistry::Disable();
  if (options.corrupt) Corrupt(*env, window.slots);
  const PassResult pass = Summarize(window, CheckAnswers(*env, window.slots));
  Absorb(report, pass);
  if (dropped > 0) {
    report.correct = false;
    report.notes.push_back("span buffer dropped " + std::to_string(dropped) +
                           " spans: per-layer figures would be partial");
  }

  const SpanFigures figures = AnalyzeSpans(spans, pass.timings, span_epoch);
  const FetchFigures fetches = SummarizeFetches(env->ledger->Take());
  const double answered = static_cast<double>(pass.latency_ms.size());
  double latency_ns = 0.0;
  for (double ms : pass.latency_ms) latency_ns += ms * 1e6;

  std::vector<const QueryBatch*> replay_batches;
  std::vector<double> replay_weights;
  std::vector<QueryBatch> adhoc;
  if (kind == Kind::kCold) {
    for (uint64_t b = 0; b < 16; ++b) {
      adhoc.push_back(MakeAdhocBatch(env->cube->schema(), env->seed, b));
    }
    for (const QueryBatch& batch : adhoc) {
      replay_batches.push_back(&batch);
      replay_weights.push_back(1.0);
    }
  } else {
    for (const auto& [t, count] : pass.batch_requests) {
      replay_batches.push_back(&env->templates[t]);
      replay_weights.push_back(count);
    }
  }
  const PlanReplay replay =
      ReplayPlans(replay_batches, replay_weights, *env->strategy, env->sse,
                  env->dense, wavebatch::server::QueryServiceOptions{}
                                  .default_quantum);
  std::shared_ptr<const CoefficientStore> pinned = env->served->PinVersion();
  const double sum_abs_ms =
      ReplaySumAbsMs(pinned != nullptr ? *pinned : *env->served, 5);
  WriterStats replayed;
  if (kind != Kind::kIngest) {
    // No writer runs on this workload: replay the ingest writer's steps back
    // to back on a versioned copy of this workload's view, so the writer
    // metrics describe what maintaining this store would cost.
    VersionedStore store(HashCopy(*env->dense));
    TemperatureDatasetOptions stream = DataFor(kind, StreamSeed(env->seed, 3));
    stream.num_records = 2 * kPublishEvery * kMergeEvery;
    const wavebatch::Relation tuples = wavebatch::MakeTemperatureDataset(stream);
    WriteTuples(store, *env->strategy, tuples,
                [&](uint64_t i) { return i < tuples.num_tuples(); }, &replayed);
  }
  const WriterStats& w = kind == Kind::kIngest ? window.writer : replayed;

  Add(report, "latency_p50_ms", "ms", untraced_p50);
  Add(report, "latency_p99_ms", "ms", untraced_p99);
  Add(report, "throughput_rps", "1/s", untraced_rps);
  Add(report, "server.queue_wait_p50_us", "us",
      Percentile(figures.queue_wait_us, 0.50));
  Add(report, "server.queue_wait_p99_us", "us",
      Percentile(figures.queue_wait_us, 0.99));
  Add(report, "server.quanta_per_req", "count", figures.quanta_per_req);
  Add(report, "server.union_keys_per_quantum", "keys",
      figures.union_keys_per_quantum);
  Add(report, "server.shared_hit_ratio", "ratio",
      Ratio(static_cast<double>(window.hits),
            static_cast<double>(window.hits + window.misses)));
  Add(report, "server.generations", "count",
      static_cast<double>(pass.generations.size()));
  Add(report, "engine.plan_hit_ratio", "ratio",
      Ratio(static_cast<double>(window.plan_hits),
            static_cast<double>(window.plan_hits + window.plan_misses)));
  Add(report, "engine.plan_build_ms_p50", "ms",
      Percentile(figures.plan_build_ms, 0.50));
  Add(report, "engine.plan_build_ms_p99", "ms",
      Percentile(figures.plan_build_ms, 0.99));
  Add(report, "engine.rank_ms", "ms", replay.rank_ms);
  Add(report, "engine.step_us_per_quantum", "us",
      figures.step_self_us_per_quantum);
  Add(report, "engine.apply_ns_per_use", "ns", replay.apply_ns_per_use);
  Add(report, "engine.uses_per_req", "count", replay.uses_per_batch);
  Add(report, "wavelet.transform_ms", "ms", replay.transform_ms);
  Add(report, "core.merge_ms", "ms", replay.merge_ms);
  Add(report, "core.entries_per_req", "count", pass.mean_steps);
  Add(report, "core.uses_per_entry", "ratio",
      Ratio(replay.uses_per_batch, replay.entries_per_batch));
  Add(report, "storage.fetch_batches_per_req", "count",
      Ratio(fetches.batches, answered));
  Add(report, "storage.keys_per_batch", "keys",
      Ratio(fetches.keys, fetches.batches));
  Add(report, "storage.fetch_us_p50", "us",
      Percentile(fetches.batch_us, 0.50));
  Add(report, "storage.fetch_us_p99", "us",
      Percentile(fetches.batch_us, 0.99));
  Add(report, "storage.fetch_ns_per_key", "ns",
      Ratio(fetches.total_ns, fetches.keys));
  Add(report, "storage.fetch_share_pct", "%",
      100.0 * Ratio(fetches.total_ns, latency_ns));
  Add(report, "storage.sum_abs_ms", "ms", sum_abs_ms);
  Add(report, "storage.overlay_entries_mean", "count", Mean(w.overlay_entries));
  Add(report, "storage.publish_us_p50", "us", Percentile(w.publish_us, 0.50));
  Add(report, "storage.merge_ms", "ms", Mean(w.merge_ms));
  Add(report, "strategy.update_us_per_tuple", "us", Mean(w.update_us));
  Add(report, "strategy.update_entries_per_tuple", "count",
      Mean(w.update_entries));
  Add(report, "writer.write_p50_us", "us", Percentile(w.write_us, 0.50));
  Add(report, "writer.write_p99_us", "us", Percentile(w.write_us, 0.99));
  Add(report, "telemetry.overhead_pct", "%",
      100.0 * (Ratio(pass.latency_p50_ms, untraced_p50) - 1.0));
  Add(report, "telemetry.dropped_spans", "count", static_cast<double>(dropped));
  Add(report, "bench.send_lag_p99_us", "us", Percentile(pass.send_lag_us, 0.99));
  Add(report, "bench.unattributed_pct", "%", figures.unattributed_pct);
  std::ostringstream sizes;
  sizes << "traced pass: " << spans.size() << " spans, " << fetches.batches
        << " backend reads, " << w.tuples << " tuples ingested";
  report.notes.push_back(sizes.str());
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "hot_dashboard", "cold_adhoc", "ingest_progressive"};
  return names;
}

Report Run(const RunOptions& options) {
  const Kind kind = KindOf(options.workload);
  Report report = options.trace ? RunTraced(options, kind)
                                : RunEndToEnd(options, kind);
  if (report.failed > 0) report.correct = false;
  return report;
}

}  // namespace perfbench
