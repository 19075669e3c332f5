// Figure 5 + Observation 2 (Section 6): "Progressive estimates become
// accurate quickly." Mean relative error of the progressive estimates
// versus the number of wavelet coefficients retrieved (log-log in the
// paper). The paper reports MRE < 1% after 128 retrievals for 512 queries
// — less than one I/O per query.

#include "bench_common.h"
#include "engine/progression_trace.h"
#include "penalty/sse.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_fig5_mre: reproduce Figure 5 (progressive MRE)\n" +
                  kCommonFlagsHelp);
  TemperatureDatasetOptions options = DataOptionsFromFlags(flags);
  const std::vector<size_t> parts = PartsFromFlags(flags);
  size_t num_ranges = 1;
  for (size_t p : parts) num_ranges *= p;

  Stopwatch total;
  std::cout << "building experiment (domain "
            << TemperatureSchema(options).ToString() << ", "
            << options.num_records << " records, " << num_ranges
            << " ranges)..." << std::endl;
  Experiment exp(options, parts, 1234, WaveletKind::kDb4);

  auto sse = std::make_shared<SsePenalty>();
  double norm = 0.0;
  for (double e : exp.exact) norm += e * e;

  EvalSession ev = exp.Session(sse);
  Result<ProgressionTrace> run = ProgressionTrace::Run(
      ev, exp.exact, {{"normalized_sse", sse.get(), norm}},
      /*dense_until=*/32, /*growth=*/1.3, /*k_sum_abs=*/exp.store->SumAbs(),
      /*domain_cells=*/exp.cube.schema().cell_count());
  if (!run.ok()) {
    std::cerr << "progression failed: " << run.status() << std::endl;
    return 1;
  }
  const ProgressionTrace& trace = *run;

  std::cout << "\nFigure 5: progressive mean relative error "
            << "(biggest-B, SSE importance), " << exp.workload.batch.size()
            << " queries, master list " << exp.list->size() << "\n";
  trace.ToTable().Print(std::cout);

  // Headline numbers.
  uint64_t below_1pct = 0, below_01pct = 0;
  for (const auto& pt : trace.points()) {
    if (below_1pct == 0 && pt.mean_relative_error < 0.01) {
      below_1pct = pt.retrieved;
    }
    if (below_01pct == 0 && pt.mean_relative_error < 0.001) {
      below_01pct = pt.retrieved;
    }
  }
  const size_t s = exp.workload.batch.size();
  std::cout << "\nMRE < 1% after ~" << below_1pct << " retrievals ("
            << FormatDouble(static_cast<double>(below_1pct) / s, 3)
            << " per query; paper: 128 retrievals = 0.25/query)\n";
  std::cout << "MRE < 0.1% after ~" << below_01pct << " retrievals ("
            << FormatDouble(static_cast<double>(below_01pct) / s, 3)
            << " per query)\n";
  std::cout << "exact after " << exp.list->size() << " retrievals ("
            << FormatDouble(static_cast<double>(exp.list->size()) / s, 3)
            << " per query)\n";
  std::cout << "elapsed: " << FormatDouble(total.ElapsedSeconds(), 3)
            << "s\n";

  const std::string csv = flags.Str("csv", "");
  if (!csv.empty() && !trace.ToTable().WriteCsv(csv)) return 1;
  if (!WriteMetricsOut(flags)) return 1;
  return 0;
}

}  // namespace
}  // namespace wavebatch::bench

int main(int argc, char** argv) { return wavebatch::bench::Main(argc, argv); }
