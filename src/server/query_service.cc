#include "server/query_service.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "storage/versioned_store.h"
#include "telemetry/span.h"
#include "util/check.h"
#include "util/fingerprint.h"

namespace wavebatch::server {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

}  // namespace

QueryService::QueryService(std::shared_ptr<const CoefficientStore> store,
                           std::shared_ptr<const LinearStrategy> strategy,
                           QueryServiceOptions options)
    : root_store_(std::move(store)),
      strategy_(std::move(strategy)),
      options_(std::move(options)) {
  WB_CHECK(root_store_ != nullptr);
  WB_CHECK(strategy_ != nullptr);
  WB_CHECK_GT(options_.max_queue_depth, 0u);
  WB_CHECK_GT(options_.max_live_sessions, 0u);
  WB_CHECK_GT(options_.default_quantum, 0u);
  plan_cache_ = options_.plan_cache != nullptr
                    ? options_.plan_cache
                    : std::make_shared<PlanCache>(options_.plan_cache_capacity);
  auto& registry = telemetry::MetricsRegistry::Default();
  queue_depth_gauge_ =
      registry.GetGauge("wavebatch_server_admission_queue_depth", {},
                       "Requests admitted but not yet live.");
  live_sessions_gauge_ =
      registry.GetGauge("wavebatch_server_live_sessions", {},
                       "Progressive sessions currently being served.");
  requests_ = registry.GetCounter("wavebatch_server_requests_total", {},
                                  "Requests offered to Submit().");
  sheds_ = registry.GetCounter("wavebatch_server_sheds_total", {},
                               "Requests shed by admission backpressure.");
  completed_ = registry.GetCounter("wavebatch_server_completed_total", {},
                                   "Requests completed (exact, bound met, "
                                   "or deadline-expired).");
  deadline_expired_ =
      registry.GetCounter("wavebatch_server_deadline_expired_total", {},
                          "Requests completed approximate at their deadline.");
  failed_ = registry.GetCounter("wavebatch_server_failed_total", {},
                                "Requests completed with a non-OK status.");
  latency_us_ =
      registry.GetHistogram("wavebatch_server_request_latency_us", {},
                            "Admission-to-completion latency, microseconds.");
  std::lock_guard<std::mutex> lock(mu_);
  RepinLocked();
}

QueryService::~QueryService() {
  Stop();
  // Fail everything still queued or live — every admitted request gets its
  // callback exactly once.
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (Pending& p : pending_) {
      QueryResponse response;
      response.status = Status::Unavailable("query service shut down");
      response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
          now - p.admitted_at);
      callbacks.push_back(
          [done = std::move(p.done), r = std::move(response)]() mutable {
            done(std::move(r));
          });
    }
    pending_.clear();
    queue_depth_gauge_->Set(0.0);
    while (!live_.empty()) {
      callbacks.push_back(FinalizeLocked(
          live_.size() - 1, Status::Unavailable("query service shut down"),
          /*deadline_expired=*/false, now));
    }
  }
  for (auto& cb : callbacks) cb();
}

void QueryService::RepinLocked() {
  std::shared_ptr<const CoefficientStore> pinned = root_store_->PinVersion();
  pinned_ = pinned != nullptr ? std::move(pinned) : root_store_;
  // Versioned planes pin SnapshotStores, which carry their published epoch;
  // static stores read as epoch 0. Spans and /statusz report this so a
  // trace shows which data version served each request.
  const auto* snapshot = dynamic_cast<const SnapshotStore*>(pinned_.get());
  pinned_epoch_ = snapshot != nullptr ? snapshot->epoch() : 0;
}

uint64_t QueryService::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_epoch_;
}

std::vector<QueryService::GroupStatus> QueryService::GroupStatuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GroupStatus> out;
  out.reserve(groups_.size());
  for (const auto& [key, group] : groups_) {
    GroupStatus status;
    status.generation = group->generation;
    status.epoch = group->epoch;
    status.members = group->members;
    status.cache_entries = group->cache->size();
    status.cache_hits = group->cache->hits();
    status.cache_misses = group->cache->misses();
    status.k_sum_abs = group->k_sum_abs;
    out.push_back(status);
  }
  // groups_ is a hash map; give callers a stable order.
  std::sort(out.begin(), out.end(),
            [](const GroupStatus& a, const GroupStatus& b) {
              return a.generation != b.generation
                         ? a.generation < b.generation
                         : a.members > b.members;
            });
  return out;
}

std::vector<QueryService::TimelineRecord> QueryService::RecentTimelines()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_timelines_.begin(), recent_timelines_.end()};
}

void QueryService::RefreshEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  RepinLocked();
  ++generation_;
}

uint64_t QueryService::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

uint64_t QueryService::sheds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_sheds_;
}

uint64_t QueryService::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_completed_;
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

size_t QueryService::live_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

uint64_t QueryService::shared_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = retired_hits_;
  for (const auto& [key, group] : groups_) total += group->cache->hits();
  return total;
}

uint64_t QueryService::shared_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = retired_misses_;
  for (const auto& [key, group] : groups_) total += group->cache->misses();
  return total;
}

Status QueryService::Submit(QueryRequest request, ResponseCallback done) {
  WB_CHECK(done != nullptr);
  requests_->Add();
  // Mint the trace identity before taking the lock: NewTraceId() is one
  // relaxed atomic increment, and shed requests simply never use theirs.
  telemetry::TraceContext trace;
  if (telemetry::Enabled()) {
    trace.trace_id = telemetry::NewTraceId();
    trace.request_id = trace.trace_id;
  }
  size_t depth_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() >= options_.max_queue_depth) {
      sheds_->Add();
      ++local_sheds_;
      return Status::Unavailable("admission queue full");
    }
    if (options_.pool_queue_shed_threshold > 0.0) {
      // Cross-subsystem backpressure: the process thread pools (merges,
      // parallel plan builds) report queued work through this gauge; a
      // saturated pool means new sessions would only add to the backlog.
      telemetry::Gauge* pool_depth =
          telemetry::MetricsRegistry::Default().GetGauge(
              "wavebatch_thread_pool_queue_depth");
      if (pool_depth->Value() > options_.pool_queue_shed_threshold) {
        sheds_->Add();
        ++local_sheds_;
        return Status::Unavailable("thread pools saturated");
      }
    }
    pending_.push_back(Pending{std::move(request), std::move(done),
                               std::chrono::steady_clock::now(), trace});
    depth_after = pending_.size();
    queue_depth_gauge_->Set(static_cast<double>(depth_after));
  }
  if (trace.active()) {
    // The trace's root marker: a zero-duration span stamped with the fresh
    // ids, so /tracez shows when the request entered the queue and how deep
    // the queue was. Recorded outside mu_ (span_mu_ must never nest inside
    // the service lock's critical sections on the hot path).
    telemetry::ScopedTraceContext guard(trace);
    const auto now = std::chrono::steady_clock::now();
    telemetry::MetricsRegistry::Default().RecordSpan(
        "request_submit", now, now,
        {telemetry::SpanAttr{"queue_depth", static_cast<double>(depth_after)}});
  }
  cv_.notify_one();
  return Status::OK();
}

std::string QueryService::GroupKeyLocked(const QueryRequest& request) const {
  std::string key;
  fingerprint::AppendString(key, strategy_->name());
  if (request.penalty == nullptr) {
    fingerprint::AppendU64(key, 0);
  } else {
    fingerprint::AppendString(key, request.penalty->Fingerprint());
  }
  const Schema& schema = request.batch.schema();
  fingerprint::AppendU64(key, schema.num_dims());
  for (const Dimension& d : schema.dims()) {
    key += d.name;
    key += '\0';
    fingerprint::AppendU64(key, d.size);
  }
  fingerprint::AppendU64(key, generation_);
  return key;
}

std::shared_ptr<QueryService::Group> QueryService::GetGroupLocked(
    const QueryRequest& request) {
  std::string key = GroupKeyLocked(request);
  auto it = groups_.find(key);
  if (it != groups_.end()) return it->second;
  auto group = std::make_shared<Group>();
  group->key = key;
  group->cache = std::make_shared<SharedFetchCache>();
  group->store = std::make_shared<SharedFetchStore>(pinned_, group->cache);
  group->k_sum_abs = pinned_->SumAbs();
  group->generation = generation_;
  group->epoch = pinned_epoch_;
  groups_[std::move(key)] = group;
  return group;
}

void QueryService::AdmitLocked(std::vector<std::function<void()>>* finished) {
  const auto now = std::chrono::steady_clock::now();
  while (!pending_.empty() && live_.size() < options_.max_live_sessions) {
    Pending pending = std::move(pending_.front());
    pending_.erase(pending_.begin());
    queue_depth_gauge_->Set(static_cast<double>(pending_.size()));

    auto active = std::make_unique<Active>(std::move(pending.request),
                                           std::move(pending.done));
    active->admitted_at = pending.admitted_at;
    active->deadline_at =
        active->request.deadline.count() > 0
            ? pending.admitted_at + active->request.deadline
            : kNoDeadline;
    active->quantum = active->request.quantum > 0 ? active->request.quantum
                                                  : options_.default_quantum;
    active->generation = generation_;
    active->trace = pending.trace;
    active->timeline =
        telemetry::ConvergenceTimeline(options_.timeline_capacity);

    // Plans are store-free (a transform of the queries alone), so one
    // cached plan is shared across generations. The lookup (and any
    // build it triggers) runs under the request's trace so plan_build /
    // plan_cache_lookup spans attribute to it.
    std::optional<telemetry::ScopedTraceContext> trace_guard;
    if (active->trace.active()) trace_guard.emplace(active->trace);
    Result<std::shared_ptr<const EvalPlan>> plan = plan_cache_->GetOrBuild(
        active->request.batch, *strategy_, active->request.penalty);
    trace_guard.reset();
    if (!plan.ok()) {
      QueryResponse response;
      response.status = plan.status();
      response.request_id = active->trace.request_id;
      response.trace_id = active->trace.trace_id;
      response.generation = generation_;
      response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
          now - active->admitted_at);
      failed_->Add();
      finished->push_back(
          [done = std::move(active->done), r = std::move(response)]() mutable {
            done(std::move(r));
          });
      continue;
    }

    active->group = GetGroupLocked(active->request);
    ++active->group->members;
    EvalSession::Options session_options;
    session_options.order = active->request.penalty != nullptr
                                ? ProgressionOrder::kBiggestB
                                : ProgressionOrder::kKeyOrder;
    session_options.fault_policy = active->request.fault_policy;
    active->session = std::make_unique<EvalSession>(
        plan.value(), active->group->store, session_options);
    live_.push_back(std::move(active));
    live_sessions_gauge_->Set(static_cast<double>(live_.size()));
  }
}

bool QueryService::IsFinishedLocked(
    const Active& active, std::chrono::steady_clock::time_point now) const {
  if (active.failed) return true;
  if (active.session->Done()) return true;
  if (now >= active.deadline_at) return true;
  if (active.request.target_bound > 0.0 &&
      active.session->plan().HasImportance() &&
      active.session->WorstCaseBound(active.group->k_sum_abs) <=
          active.request.target_bound) {
    return true;
  }
  return false;
}

QueryService::Active* QueryService::PickLocked(
    std::chrono::steady_clock::time_point now) {
  // Least deadline slack first; among equals, the session whose next
  // quantum buys the most Theorem-1 bound reduction per retrieval (its next
  // coefficient's importance — the progression is importance-sorted, so
  // the head is the quantum's densest unit of progress).
  Active* best = nullptr;
  double best_slack = 0.0;
  double best_marginal = 0.0;
  for (auto& active : live_) {
    if (active->busy || IsFinishedLocked(*active, now)) continue;
    const double slack =
        active->deadline_at == kNoDeadline
            ? std::numeric_limits<double>::infinity()
            : std::chrono::duration_cast<std::chrono::duration<double>>(
                  active->deadline_at - now)
                  .count();
    const double marginal = active->session->plan().HasImportance()
                                ? active->session->NextImportance()
                                : 0.0;
    if (best == nullptr || slack < best_slack ||
        (slack == best_slack && marginal > best_marginal)) {
      best = active.get();
      best_slack = slack;
      best_marginal = marginal;
    }
  }
  return best;
}

void QueryService::GatherGroupKeysLocked(
    const Active& active, std::vector<uint64_t>* out,
    std::vector<telemetry::TraceContext>* siblings) {
  out->clear();
  if (siblings != nullptr) siblings->clear();
  active.session->PeekUpcomingKeys(active.quantum, out);
  for (const auto& other : live_) {
    if (other.get() == &active || other->group != active.group) continue;
    // Busy siblings are mid-quantum on another worker; their cursor is
    // theirs alone until they put it down.
    if (other->busy || other->failed) continue;
    const size_t appended =
        other->session->PeekUpcomingKeys(other->quantum, out);
    // Merged-batch attribution: remember whose keys rode along so the
    // quantum can mark those requests' traces as advanced by this fetch.
    if (siblings != nullptr && appended > 0 && other->trace.active()) {
      siblings->push_back(other->trace);
    }
  }
}

void QueryService::SampleTimeline(Active& active, bool force) const {
  telemetry::TimelinePoint point;
  point.steps = active.session->StepsTaken();
  point.retrievals = active.session->io().retrievals;
  const std::vector<double>& estimates = active.session->Estimates();
  point.estimate = estimates.empty() ? 0.0 : estimates[0];
  if (active.session->plan().HasImportance()) {
    point.bound = active.session->WorstCaseBound(active.group->k_sum_abs);
  }
  point.skipped_importance = active.session->SkippedImportance();
  point.elapsed_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - active.admitted_at)
          .count();
  if (force) {
    active.timeline.ForceSample(point);
  } else {
    active.timeline.Sample(point);
  }
}

void QueryService::StepQuantum(Active& active, std::vector<uint64_t>* keys,
                               std::vector<telemetry::TraceContext>* siblings) {
  // The whole quantum — the merged prefetch and this session's StepBatch —
  // runs under the request's TraceContext, so every backend span it causes
  // (store_fetch_batch, shard_subbatch) attributes to this request.
  const bool traced = active.trace.active() && telemetry::Enabled();
  std::optional<telemetry::ScopedTraceContext> trace_guard;
  std::optional<telemetry::ScopedSpan> quantum_span;
  if (traced) {
    trace_guard.emplace(active.trace);
    quantum_span.emplace("request_quantum");
    quantum_span->AddAttr("union_keys", static_cast<double>(keys->size()));
    quantum_span->AddAttr("siblings",
                          static_cast<double>(siblings->size()));
    quantum_span->AddAttr("generation",
                          static_cast<double>(active.generation));
    quantum_span->AddAttr("epoch", static_cast<double>(active.group->epoch));
  }
  // The cross-session fetch: the union of the group's upcoming needs goes
  // to the backend as one batch (cold keys only — the cache drops warm and
  // duplicate keys), then this session's own StepBatch runs warm. Prefetch
  // is best-effort; a faulty batch is retried per key inside and whatever
  // stays unavailable surfaces through the session's own FaultPolicy.
  (void)active.group->store->Prefetch(*keys);
  if (traced && !siblings->empty()) {
    // Sibling attribution: the merged batch warmed these requests' upcoming
    // keys too. A zero-duration marker in each sibling's trace names the
    // request whose quantum paid for the fetch, so a trace shows both sides
    // of every cross-session share.
    const auto now = std::chrono::steady_clock::now();
    const double by_request = static_cast<double>(active.trace.request_id);
    for (const telemetry::TraceContext& sibling : *siblings) {
      telemetry::ScopedTraceContext sibling_guard(sibling);
      telemetry::MetricsRegistry::Default().RecordSpan(
          "shared_prefetch_advance", now, now,
          {telemetry::SpanAttr{"by_request", by_request}});
    }
  }
  Result<size_t> stepped = active.session->StepBatch(active.quantum);
  if (!stepped.ok()) {
    // kFail: the session is untouched and resumable, but the serving
    // contract is one answer per request — complete with the fault and the
    // progressive estimates gathered so far.
    active.failure = stepped.status();
    active.failed = true;
  }
  if (traced) SampleTimeline(active, /*force=*/false);
}

std::function<void()> QueryService::FinalizeLocked(
    size_t live_index, Status status, bool deadline_expired,
    std::chrono::steady_clock::time_point now) {
  std::unique_ptr<Active> active = std::move(live_[live_index]);
  live_.erase(live_.begin() + static_cast<ptrdiff_t>(live_index));
  live_sessions_gauge_->Set(static_cast<double>(live_.size()));

  // Close the convergence record with the request's final state — the
  // curve's last point is the answer actually returned.
  if (active->trace.active() && telemetry::Enabled()) {
    SampleTimeline(*active, /*force=*/true);
  }

  QueryResponse response;
  response.status = std::move(status);
  response.estimates = active->session->Estimates();
  response.steps_taken = active->session->StepsTaken();
  response.total_steps = active->session->TotalSteps();
  response.skipped_coefficients = active->session->SkippedCoefficients();
  response.io = active->session->io();
  response.exact = active->session->Done() &&
                   active->session->SkippedCoefficients() == 0;
  response.deadline_expired = deadline_expired;
  response.generation = active->generation;
  if (active->session->plan().HasImportance()) {
    response.worst_case_bound =
        active->session->WorstCaseBound(active->group->k_sum_abs);
  }
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      now - active->admitted_at);
  response.request_id = active->trace.request_id;
  response.trace_id = active->trace.trace_id;

  if (!active->timeline.empty()) {
    TimelineRecord record;
    record.request_id = active->trace.request_id;
    record.trace_id = active->trace.trace_id;
    record.generation = active->generation;
    record.ok = response.status.ok();
    record.exact = response.exact;
    record.deadline_expired = deadline_expired;
    record.points = active->timeline.TakePoints();
    response.timeline = record.points;
    recent_timelines_.push_back(std::move(record));
    while (recent_timelines_.size() > options_.recent_timelines) {
      recent_timelines_.pop_front();
    }
  }

  latency_us_->Observe(
      static_cast<uint64_t>(std::max<int64_t>(0, response.latency.count())));
  completed_->Add();
  ++local_completed_;
  if (deadline_expired) deadline_expired_->Add();
  if (!response.status.ok()) failed_->Add();

  // Retire the group when its last member leaves: the epoch's cache has
  // served its purpose, and holding it would pin the snapshot (and its
  // memory) forever. The ledger folds into the retired totals first.
  if (--active->group->members == 0) {
    retired_hits_ += active->group->cache->hits();
    retired_misses_ += active->group->cache->misses();
    groups_.erase(active->group->key);
  }

  return [done = std::move(active->done), r = std::move(response)]() mutable {
    done(std::move(r));
  };
}

void QueryService::RunUntilIdle() {
  std::vector<uint64_t> key_scratch;
  std::vector<telemetry::TraceContext> sibling_scratch;
  for (;;) {
    std::vector<std::function<void()>> callbacks;
    Active* picked = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      AdmitLocked(&callbacks);
      const auto now = std::chrono::steady_clock::now();
      // Finalize everything already complete (deadline may expire while a
      // session waits its turn; target bounds are met mid-stream).
      for (size_t i = live_.size(); i-- > 0;) {
        Active& active = *live_[i];
        if (active.busy || !IsFinishedLocked(active, now)) continue;
        const bool expired = !active.failed && !active.session->Done() &&
                             now >= active.deadline_at &&
                             !(active.request.target_bound > 0.0 &&
                               active.session->plan().HasImportance() &&
                               active.session->WorstCaseBound(
                                   active.group->k_sum_abs) <=
                                   active.request.target_bound);
        callbacks.push_back(FinalizeLocked(
            i, active.failed ? active.failure : Status::OK(), expired, now));
      }
      picked = PickLocked(now);
      if (picked != nullptr) {
        picked->busy = true;
        GatherGroupKeysLocked(*picked, &key_scratch, &sibling_scratch);
      }
    }
    for (auto& cb : callbacks) cb();
    if (picked == nullptr) {
      std::unique_lock<std::mutex> lock(mu_);
      const bool busy_elsewhere =
          std::any_of(live_.begin(), live_.end(),
                      [](const auto& a) { return a->busy; });
      if (pending_.empty() && !busy_elsewhere) return;
      // Workers hold every runnable session (or the queue drains into slots
      // they will free): yield briefly and re-check.
      cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    StepQuantum(*picked, &key_scratch, &sibling_scratch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      picked->busy = false;
    }
    cv_.notify_all();
  }
}

void QueryService::WorkerLoop() {
  std::vector<uint64_t> key_scratch;
  std::vector<telemetry::TraceContext> sibling_scratch;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    std::vector<std::function<void()>> callbacks;
    AdmitLocked(&callbacks);
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = live_.size(); i-- > 0;) {
      Active& active = *live_[i];
      if (active.busy || !IsFinishedLocked(active, now)) continue;
      const bool expired = !active.failed && !active.session->Done() &&
                           now >= active.deadline_at &&
                           !(active.request.target_bound > 0.0 &&
                             active.session->plan().HasImportance() &&
                             active.session->WorstCaseBound(
                                 active.group->k_sum_abs) <=
                                 active.request.target_bound);
      callbacks.push_back(FinalizeLocked(
          i, active.failed ? active.failure : Status::OK(), expired, now));
    }
    Active* picked = PickLocked(now);
    if (picked == nullptr && callbacks.empty()) {
      // Nothing runnable: if sessions are only waiting on their deadlines
      // (none here — sessions always make progress until complete), or the
      // queue is empty, sleep until new work or a sibling frees capacity.
      cv_.wait(lock, [this] {
        return stopping_ || !pending_.empty() ||
               std::any_of(live_.begin(), live_.end(),
                           [](const auto& a) { return !a->busy; });
      });
      continue;
    }
    if (picked != nullptr) {
      picked->busy = true;
      GatherGroupKeysLocked(*picked, &key_scratch, &sibling_scratch);
    }
    lock.unlock();
    for (auto& cb : callbacks) cb();
    if (picked != nullptr) {
      StepQuantum(*picked, &key_scratch, &sibling_scratch);
    }
    lock.lock();
    if (picked != nullptr) picked->busy = false;
    cv_.notify_all();
  }
}

void QueryService::Start(size_t num_threads) {
  WB_CHECK_GT(num_threads, 0u);
  std::lock_guard<std::mutex> lock(mu_);
  if (!workers_.empty()) return;
  stopping_ = false;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void QueryService::Stop() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty()) return;
    stopping_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& t : workers) t.join();
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = false;
}

}  // namespace wavebatch::server
