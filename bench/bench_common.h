#ifndef WAVEBATCH_BENCH_BENCH_COMMON_H_
#define WAVEBATCH_BENCH_BENCH_COMMON_H_

// Shared plumbing for the experiment harnesses in bench/: a tiny
// --key=value flag parser and the paper-shaped default workload (synthetic
// temperature cube + 512-range partition batch).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/master_list.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "util/stopwatch.h"

namespace wavebatch::bench {

/// Parses argv of the form --key=value into a map; prints usage and exits
/// on --help. Unrecognized flags are fatal (catches typos in sweeps).
class Flags {
 public:
  Flags(int argc, char** argv, const std::string& usage) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::cerr << usage << std::endl;
        std::exit(0);
      }
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unrecognized argument: " << arg << "\n" << usage
                  << std::endl;
        std::exit(2);
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";  // bare flag = true
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  int64_t Int(const std::string& key, int64_t def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::strtoll(it->second.c_str(),
                                                    nullptr, 10);
  }
  double Double(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::strtod(it->second.c_str(),
                                                   nullptr);
  }
  std::string Str(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  bool Bool(const std::string& key, bool def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second != "0" && it->second != "false";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The paper-shaped experiment: temperature cube, a lat×lon grid partition
/// summing temperature per cell, the Db4 wavelet view, and exact reference
/// results.
struct Experiment {
  TemperatureDatasetOptions data_options;
  DenseCube cube;
  PartitionWorkload workload;
  WaveletStrategy strategy;
  std::shared_ptr<CoefficientStore> store;
  std::shared_ptr<const MasterList> list;
  std::vector<double> exact;

  Experiment(TemperatureDatasetOptions options, std::vector<size_t> parts,
             uint64_t workload_seed, WaveletKind kind,
             uint32_t min_width = 2)
      : data_options(options),
        cube(MakeTemperatureCube(options)),
        // Binned Kelvin temperatures: bin 0 is ~200 K at 3.75 K per bin,
        // so the summed physical measure is 53.33 + x_temp (in bins).
        workload(MakePartitionWorkload(cube.schema(), parts,
                                       CellAggregate::kSum, kTemp,
                                       workload_seed, /*random_cuts=*/true,
                                       min_width,
                                       /*measure_offset=*/53.33)),
        strategy(cube.schema(), kind) {
    store = strategy.BuildStore(cube);
    Result<MasterList> built = MasterList::Build(workload.batch, strategy);
    if (!built.ok()) {
      std::cerr << "master list build failed: " << built.status()
                << std::endl;
      std::exit(1);
    }
    list = std::make_shared<const MasterList>(std::move(built).value());
    // Reference results: exact shared evaluation (itself validated against
    // brute force in the test suite). I/O is counted per session, so these
    // fetches don't pollute later measurements.
    exact = ExactOver(store);
  }

  /// A biggest-B session over the experiment's master list and store,
  /// ordered by `penalty`'s importances.
  EvalSession Session(std::shared_ptr<const PenaltyFunction> penalty) const {
    return EvalSession(EvalPlan::FromMasterList(list, std::move(penalty)),
                       store);
  }

  /// The batch's exact answers over `data` (one shared key-order pass).
  std::vector<double> ExactOver(
      std::shared_ptr<const CoefficientStore> data) const {
    EvalSession::Options key_order;
    key_order.order = ProgressionOrder::kKeyOrder;
    EvalSession session(EvalPlan::FromMasterList(list, /*penalty=*/nullptr),
                        std::move(data), key_order);
    WB_CHECK_OK(session.RunToExact());
    return session.Estimates();
  }
};

/// Accumulates benchmark records and writes them as a JSON array — the
/// machine-readable companion to the CSV output. Schema per record:
/// {"name": ..., "params": {...}, "median_ns": ..., "retrievals": ...}.
class BenchJson {
 public:
  void Add(const std::string& name,
           const std::map<std::string, std::string>& params,
           double median_ns, uint64_t retrievals) {
    records_.push_back({name, params, median_ns, retrievals});
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "  {\"name\": \"%s\", \"params\": {",
                   Escaped(r.name).c_str());
      size_t k = 0;
      for (const auto& [key, value] : r.params) {
        std::fprintf(f, "%s\"%s\": \"%s\"", k++ ? ", " : "",
                     Escaped(key).c_str(), Escaped(value).c_str());
      }
      std::fprintf(f, "}, \"median_ns\": %.3f, \"retrievals\": %llu}%s\n",
                   r.median_ns,
                   static_cast<unsigned long long>(r.retrievals),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::cerr << "wrote " << path << " (" << records_.size()
              << " records)" << std::endl;
    return true;
  }

 private:
  struct Record {
    std::string name;
    std::map<std::string, std::string> params;
    double median_ns;
    uint64_t retrievals;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<Record> records_;
};

/// Default options matching the paper's 5-dim schema at a scale a laptop
/// handles densely; flags scale it up or down.
inline TemperatureDatasetOptions DataOptionsFromFlags(const Flags& flags) {
  TemperatureDatasetOptions options;
  options.lat_size = static_cast<uint32_t>(flags.Int("lat", 128));
  options.lon_size = static_cast<uint32_t>(flags.Int("lon", 64));
  options.alt_size = static_cast<uint32_t>(flags.Int("alt", 8));
  options.time_size = static_cast<uint32_t>(flags.Int("time", 32));
  options.temp_size = static_cast<uint32_t>(flags.Int("temp", 32));
  options.num_records =
      static_cast<uint64_t>(flags.Int("records", 15700000));
  options.seed = static_cast<uint64_t>(flags.Int("seed", 42));
  return options;
}

/// The paper's 512-range workload shape: a random grid over the four
/// physical dimensions (the temperature measure stays unrestricted);
/// default 32 (lat) x 16 (lon) = 512 cells.
inline std::vector<size_t> PartsFromFlags(const Flags& flags) {
  return {static_cast<size_t>(flags.Int("lat_parts", 32)),
          static_cast<size_t>(flags.Int("lon_parts", 16)),
          static_cast<size_t>(flags.Int("alt_parts", 1)),
          static_cast<size_t>(flags.Int("time_parts", 1)),
          static_cast<size_t>(flags.Int("temp_parts", 1))};
}

inline const std::string kCommonFlagsHelp =
    "  --lat= --lon= --alt= --time= --temp=   domain sizes (powers of 2)\n"
    "  --records=N   synthetic observations (default 2000000)\n"
    "  --seed=N      data seed (default 42)\n"
    "  --lat_parts= --lon_parts= --alt_parts= --time_parts=\n"
    "                partition grid (default 32x16 = 512 ranges)\n"
    "  --csv=path    also write the series as CSV\n"
    "  --metrics_out=path\n"
    "                dump the telemetry registry (store/engine counters,\n"
    "                latency histograms) as Prometheus text at exit\n";

/// Writes the process telemetry registry as Prometheus text to
/// --metrics_out=path, if the flag was given. Call at the end of a run so
/// the counters cover the whole experiment. Returns false only on an I/O
/// error for a requested path.
inline bool WriteMetricsOut(const Flags& flags) {
  const std::string path = flags.Str("metrics_out", "");
  if (path.empty()) return true;
  const std::string text = telemetry::ExportPrometheus();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "failed to open --metrics_out=" << path << std::endl;
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (ok) {
    std::cerr << "wrote " << path << " ("
              << telemetry::MetricsRegistry::Default().NumMetrics()
              << " metric series)" << std::endl;
  }
  return ok;
}

}  // namespace wavebatch::bench

#endif  // WAVEBATCH_BENCH_BENCH_COMMON_H_
