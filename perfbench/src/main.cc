// Serving benchmark for wavebatch: runs one named workload against the
// QueryService front end, checks every answer, and prints every metric by
// name and unit. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every answer passed its check.
//
//   perfbench_serving --workload hot_dashboard --seed 1 --seconds 10
//                     --trace 0 [--workdir DIR] [--corrupt 1]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << error << "\nusage: perfbench_serving --workload NAME --seed N"
            << " --seconds S --trace 0|1 [--workdir DIR] [--corrupt 0|1]\n"
            << "workloads:";
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << std::endl;
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--corrupt") {
      if (value != "0" && value != "1") return Usage("bad --corrupt " + value);
      options.corrupt = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) {
    return Usage("unknown workload '" + options.workload + "'");
  }

  const perfbench::Report report = perfbench::Run(options);
  for (const std::string& note : report.notes) {
    std::cout << "# " << note << "\n";
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::cout << m.name << " = " << JsonNumber(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "attempted = " << report.attempted
            << ", failed = " << report.failed << "\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << JsonNumber(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return report.correct ? 0 : 1;
}
