// htbench — drives one workload of the hypertune benchmark and prints its
// metrics (see htbench/README.md). Normally run through htbench/run.py,
// which builds this binary and passes the paths:
//
//   htbench --workload NAME --seed N --seconds S --trace 0|1
//           --cli PATH --tables DIR --work DIR
//
// Prints human-readable lines, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exits 1 when a correctness check failed, 2 on bad arguments or a
// non-Release build.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

namespace htbench {
namespace {

int Usage() {
  std::cerr << "usage: htbench --workload serve-durable|serve-heartbeat|"
               "sweep-grid|sim-traced --seed N --seconds S --trace 0|1 "
               "--cli PATH --tables DIR --work DIR\n";
  return 2;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "htbench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  if (std::string(HTBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "htbench: built as '" << HTBENCH_BUILD_TYPE
              << "'; numbers come only from a Release build\n";
    return 2;
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--tables") {
      args.tables = value;
    } else if (flag == "--work") {
      args.work = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.work.empty() || args.seconds <= 0) return Usage();

  Spans spans;
  Spans* recorder = args.trace ? &spans : nullptr;
  Result result;
  if (args.workload == "serve-durable" || args.workload == "serve-heartbeat") {
    result = RunServe(args, recorder);
  } else if (args.workload == "sweep-grid") {
    result = RunSweepGrid(args, recorder);
  } else if (args.workload == "sim-traced") {
    result = RunSimTraced(args, recorder);
  } else {
    return Usage();
  }
  if (recorder != nullptr) {
    const std::string path = args.work + "/spans-" + args.workload + ".jsonl";
    result.Check(spans.Write(path), "span file written to " + path);
    result.Note("spans: " + std::to_string(spans.spans().size()) + " -> " +
                path);
  }

  for (const auto& line : result.notes) std::cout << line << "\n";
  std::cout << "{\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::cout << (i ? "," : "") << "\"" << metric.name
              << "\":{\"value\":" << JsonNumber(metric.value)
              << ",\"unit\":\"" << metric.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace htbench

int main(int argc, char** argv) {
  try {
    return htbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "htbench: " << error.what() << "\n";
    return 1;
  }
}
