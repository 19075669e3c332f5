#include "layers.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/master_list.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "stats.h"
#include "util/check.h"

namespace perfbench {

using wavebatch::telemetry::MetricsRegistry;
using wavebatch::telemetry::SpanEvent;

namespace {

double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double MsSince(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

bool Named(const SpanEvent& span, std::string_view name) {
  return name == span.name;
}

double Attr(const SpanEvent& span, std::string_view key) {
  for (uint32_t i = 0; i < span.num_attrs; ++i) {
    if (key == span.attrs[i].key) return span.attrs[i].value;
  }
  return 0.0;
}

// Length of the union of [begin, end) intervals clipped to [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>>& intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, reach);
    end = std::min(end, hi);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

Clock::time_point CalibrateSpanClock() {
  static const char kMarker[] = "perfbench_clock";
  const Clock::time_point now = Clock::now();
  MetricsRegistry::Default().RecordSpan(kMarker, now, now);
  const std::vector<SpanEvent> spans = MetricsRegistry::Default().Spans();
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->name == kMarker) {
      return now - std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(it->ts_us));
    }
  }
  WB_CHECK(false) << "span clock marker was not recorded";
  return now;
}

SpanFigures AnalyzeSpans(const std::vector<SpanEvent>& spans,
                         const std::vector<RequestTiming>& requests,
                         Clock::time_point span_epoch) {
  struct PerRequest {
    double due_us = 0.0;
    double done_us = 0.0;
    double first_quantum_us = -1.0;
    std::vector<std::pair<double, double>> spans;
  };
  std::unordered_map<uint64_t, PerRequest> by_id;
  by_id.reserve(requests.size());
  for (const RequestTiming& r : requests) {
    PerRequest& p = by_id[r.request_id];
    p.due_us = UsBetween(span_epoch, r.due);
    p.done_us = UsBetween(span_epoch, r.done);
  }

  SpanFigures out;
  uint64_t quanta = 0;
  double union_keys = 0.0;
  // session_step span id -> (duration, duration of direct fetch children).
  std::unordered_map<uint64_t, std::pair<double, double>> steps;
  for (const SpanEvent& span : spans) {
    if (Named(span, "plan_build")) out.plan_build_ms.push_back(span.dur_us / 1e3);
    auto it = by_id.find(span.request_id);
    if (span.request_id == 0 || it == by_id.end()) continue;
    PerRequest& p = it->second;
    p.spans.emplace_back(span.ts_us, span.ts_us + span.dur_us);
    if (Named(span, "request_quantum")) {
      ++quanta;
      union_keys += Attr(span, "union_keys");
      if (p.first_quantum_us < 0.0 || span.ts_us < p.first_quantum_us) {
        p.first_quantum_us = span.ts_us;
      }
    } else if (Named(span, "session_step")) {
      steps[span.span_id].first = span.dur_us;
    }
  }
  for (const SpanEvent& span : spans) {
    if (!Named(span, "store_fetch_batch")) continue;
    auto it = steps.find(span.parent_span_id);
    if (it != steps.end()) it->second.second += span.dur_us;
  }

  double latency_total = 0.0;
  double covered_total = 0.0;
  for (auto& [id, p] : by_id) {
    if (p.first_quantum_us >= 0.0) {
      out.queue_wait_us.push_back(p.first_quantum_us - p.due_us);
      // The queue-wait layer: due time up to the first quantum.
      p.spans.emplace_back(p.due_us, p.first_quantum_us);
    }
    latency_total += p.done_us - p.due_us;
    covered_total += CoveredLength(p.spans, p.due_us, p.done_us);
  }
  out.quanta_per_req = Ratio(static_cast<double>(quanta),
                             static_cast<double>(requests.size()));
  out.union_keys_per_quantum = Ratio(union_keys, static_cast<double>(quanta));
  double step_self = 0.0;
  for (const auto& [id, step] : steps) step_self += step.first - step.second;
  out.step_self_us_per_quantum =
      Ratio(step_self, static_cast<double>(steps.size()));
  out.unattributed_pct =
      100.0 * Ratio(latency_total - covered_total, latency_total);
  return out;
}

FetchFigures SummarizeFetches(const std::vector<FetchLedger::Call>& calls) {
  FetchFigures out;
  out.batch_us.reserve(calls.size());
  for (const FetchLedger::Call& call : calls) {
    out.batches += 1.0;
    out.keys += call.keys;
    out.total_ns += static_cast<double>(call.ns);
    out.batch_us.push_back(static_cast<double>(call.ns) / 1e3);
  }
  return out;
}

PlanReplay ReplayPlans(
    const std::vector<const wavebatch::QueryBatch*>& batches,
    const std::vector<double>& weights,
    const wavebatch::LinearStrategy& strategy,
    std::shared_ptr<const wavebatch::PenaltyFunction> penalty,
    std::shared_ptr<const wavebatch::CoefficientStore> dense, size_t quantum) {
  WB_CHECK_EQ(batches.size(), weights.size());
  constexpr int kReps = 3;
  PlanReplay out;
  double weight_total = 0.0;
  double apply_ns = 0.0;
  double apply_uses = 0.0;
  for (size_t b = 0; b < batches.size(); ++b) {
    const wavebatch::QueryBatch& batch = *batches[b];
    const double w = weights[b];
    if (w <= 0.0) continue;
    std::vector<double> transform, build, rank, apply;
    std::shared_ptr<const wavebatch::MasterList> list;
    for (int rep = 0; rep < kReps; ++rep) {
      Clock::time_point begin = Clock::now();
      for (const wavebatch::RangeSumQuery& query : batch.queries()) {
        WB_CHECK(strategy.TransformQuery(query).ok());
      }
      transform.push_back(MsSince(begin));

      begin = Clock::now();
      wavebatch::Result<wavebatch::MasterList> built =
          wavebatch::MasterList::Build(batch, strategy,
                                       wavebatch::BuildParallelism::kSerial);
      build.push_back(MsSince(begin));
      WB_CHECK(built.ok());
      list = std::make_shared<const wavebatch::MasterList>(
          std::move(built).value());

      begin = Clock::now();
      std::shared_ptr<const wavebatch::EvalPlan> plan =
          wavebatch::EvalPlan::FromMasterList(list, penalty);
      rank.push_back(MsSince(begin));

      wavebatch::EvalSession session(plan, dense);
      begin = Clock::now();
      while (!session.Done()) WB_CHECK(session.StepBatch(quantum).ok());
      apply.push_back(MsSince(begin) * 1e6);
    }
    const double t = Median(transform);
    out.transform_ms += w * t;
    out.merge_ms += w * std::max(0.0, Median(build) - t);
    out.rank_ms += w * Median(rank);
    apply_ns += w * Median(apply);
    apply_uses += w * static_cast<double>(list->uses_query().size());
    out.entries_per_batch += w * static_cast<double>(list->size());
    out.uses_per_batch += w * static_cast<double>(list->uses_query().size());
    weight_total += w;
  }
  if (weight_total > 0.0) {
    out.transform_ms /= weight_total;
    out.merge_ms /= weight_total;
    out.rank_ms /= weight_total;
    out.entries_per_batch /= weight_total;
    out.uses_per_batch /= weight_total;
  }
  out.apply_ns_per_use = Ratio(apply_ns, apply_uses);
  return out;
}

double ReplaySumAbsMs(const wavebatch::CoefficientStore& store, int reps) {
  std::vector<double> times;
  double sink = 0.0;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point begin = Clock::now();
    sink += store.SumAbs();
    times.push_back(MsSince(begin));
  }
  WB_CHECK(sink >= 0.0);
  return Median(times);
}

}  // namespace perfbench
