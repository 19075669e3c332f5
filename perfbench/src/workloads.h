#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, telemetry disabled. true: an untraced and a
  /// traced pass of seconds/2 each, reporting the per-layer metrics.
  bool trace = false;
  /// Self-test of the answer checks: perturb one answer before checking.
  bool corrupt = false;
  /// Scratch directory for the FileStore of cold_adhoc.
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  /// Shed, non-OK, unanswered, and failed-check requests.
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Lines worth printing: check failures, dropped spans, sizes.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

Report Run(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
