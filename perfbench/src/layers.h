#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "penalty/penalty.h"
#include "query/batch.h"
#include "storage/coefficient_store.h"
#include "strategy/linear_strategy.h"
#include "telemetry/metrics.h"
#include "timing_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock origin of span timestamps (SpanEvent::ts_us), found by
/// recording one marker span at a known time and reading it back.
Clock::time_point CalibrateSpanClock();

/// One timed request as the load generator saw it.
struct RequestTiming {
  uint64_t request_id = 0;
  Clock::time_point due;   // scheduled send time
  Clock::time_point done;  // callback
};

/// Per-layer figures read from the spans the program records.
struct SpanFigures {
  std::vector<double> queue_wait_us;  // due -> first request_quantum start
  double quanta_per_req = 0.0;
  double union_keys_per_quantum = 0.0;
  std::vector<double> plan_build_ms;  // every plan_build span
  double step_self_us_per_quantum = 0.0;
  double unattributed_pct = 0.0;
};

/// Attributes spans to `requests` by request id. A request's latency is
/// covered by its queue wait (due time to its first scheduler quantum) and
/// by every span recorded under its trace; the rest is unattributed.
SpanFigures AnalyzeSpans(const std::vector<wavebatch::telemetry::SpanEvent>& spans,
                         const std::vector<RequestTiming>& requests,
                         Clock::time_point span_epoch);

/// Backend reads seen by the timing decorator.
struct FetchFigures {
  double batches = 0.0;
  double keys = 0.0;
  std::vector<double> batch_us;
  double total_ns = 0.0;
};
FetchFigures SummarizeFetches(const std::vector<FetchLedger::Call>& calls);

/// Plan-construction and apply-kernel costs replayed outside the service on
/// the batches a run sent, each batch weighted by how many requests carried
/// it: the query transforms (LinearStrategy::TransformQuery), the
/// master-list merge (MasterList::Build minus its transforms, both serial),
/// the importance ranking (EvalPlan::FromMasterList), and a StepBatch run to
/// exact over `dense` in `quantum`-sized steps. Each timing is the median
/// of three repetitions.
struct PlanReplay {
  double transform_ms = 0.0;
  double merge_ms = 0.0;
  double rank_ms = 0.0;
  double apply_ns_per_use = 0.0;
  double entries_per_batch = 0.0;
  double uses_per_batch = 0.0;
};
PlanReplay ReplayPlans(
    const std::vector<const wavebatch::QueryBatch*>& batches,
    const std::vector<double>& weights,
    const wavebatch::LinearStrategy& strategy,
    std::shared_ptr<const wavebatch::PenaltyFunction> penalty,
    std::shared_ptr<const wavebatch::CoefficientStore> dense, size_t quantum);

/// Median wall time of `reps` SumAbs() calls on `store` (Theorem 1's K scan
/// that every new serving group pays), in ms.
double ReplaySumAbsMs(const wavebatch::CoefficientStore& store, int reps);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
