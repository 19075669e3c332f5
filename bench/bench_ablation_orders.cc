// Ablation: how much does the biggest-B *ordering* matter, holding I/O
// sharing fixed? Theorems 1–2 say biggest-B minimizes worst-case and
// expected penalty; this harness measures the realized normalized SSE of
// four progression orders over the same master list on one dataset:
//   biggest-B   — the paper's algorithm
//   round-robin — per-query biggest-first, queries advanced in turn
//                 (the "s single-query ProPolyne instances" order)
//   random      — shuffled
//   key-order   — ascending coefficient key (a sequential scan)

#include "bench_common.h"
#include "engine/progression_trace.h"
#include "penalty/sse.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_ablation_orders: progression-order ablation\n" +
                  kCommonFlagsHelp);
  TemperatureDatasetOptions options = DataOptionsFromFlags(flags);
  const std::vector<size_t> parts = PartsFromFlags(flags);

  Stopwatch total;
  std::cout << "building experiment (domain "
            << TemperatureSchema(options).ToString() << ", "
            << options.num_records << " records)..." << std::endl;
  Experiment exp(options, parts, 1234, WaveletKind::kDb4);

  auto sse = std::make_shared<SsePenalty>();
  double norm = 0.0;
  for (double e : exp.exact) norm += e * e;

  struct OrderSpec {
    const char* name;
    ProgressionOrder order;
  };
  const OrderSpec specs[] = {
      {"biggest-B", ProgressionOrder::kBiggestB},
      {"round-robin", ProgressionOrder::kRoundRobin},
      {"random", ProgressionOrder::kRandom},
      {"key-order", ProgressionOrder::kKeyOrder},
  };

  // One plan serves all four sessions: the orders differ only in the
  // consumption permutation the plan already holds.
  std::shared_ptr<const EvalPlan> plan =
      EvalPlan::FromMasterList(exp.list, sse);
  std::vector<ProgressionTrace> traces;
  for (const OrderSpec& spec : specs) {
    std::cout << "running order: " << spec.name << std::endl;
    EvalSession::Options opts;
    opts.order = spec.order;
    opts.seed = 7;
    EvalSession ev(plan, exp.store, opts);
    Result<ProgressionTrace> trace = ProgressionTrace::Run(
        ev, exp.exact, {{"nsse", sse.get(), norm}}, /*dense_until=*/16,
        /*growth=*/1.6);
    if (!trace.ok()) {
      std::cerr << "progression failed: " << trace.status() << std::endl;
      return 1;
    }
    traces.push_back(std::move(trace).value());
  }

  Table table({"retrieved", "nsse[biggest-B]", "nsse[round-robin]",
               "nsse[random]", "nsse[key-order]"});
  size_t rows = traces[0].points().size();
  for (const auto& t : traces) rows = std::min(rows, t.points().size());
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> row = {
        std::to_string(traces[0].points()[i].retrieved)};
    for (const auto& t : traces) {
      row.push_back(FormatDouble(t.points()[i].penalties[0]));
    }
    table.AddRow(std::move(row));
  }
  std::cout << "\nNormalized SSE by progression order (same master list, "
               "same total I/O):\n";
  table.Print(std::cout);
  std::cout << "expected shape: biggest-B dominates at small budgets; all "
               "orders converge to exact at the full master list.\n";
  std::cout << "elapsed: " << FormatDouble(total.ElapsedSeconds(), 3)
            << "s\n";

  const std::string csv = flags.Str("csv", "");
  if (!csv.empty() && !table.WriteCsv(csv)) return 1;
  if (!WriteMetricsOut(flags)) return 1;
  return 0;
}

}  // namespace
}  // namespace wavebatch::bench

int main(int argc, char** argv) { return wavebatch::bench::Main(argc, argv); }
