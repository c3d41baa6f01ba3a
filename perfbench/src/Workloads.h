//===----------------------------------------------------------------------===//
///
/// \file
/// The three benchmark workloads.
///
///  kernels  one thread, closed loop: driver::compileAndRun over the
///           13-program kernel suite in a seeded order, every result
///           checked against the frozen -O0 memory digests.
///  fuzz     one thread, closed loop: seeded generated programs through
///           fuzz::runOracle (-O0 plus 5 registered-order variants).
///  daemon   a forked server::Server child serving 4 closed-loop client
///           threads, one fresh connection per request; ~80% repeats of
///           the 13 kernel invocations, ~20% fresh generated programs,
///           every response diffed against a direct runToolInvocation.
///
/// With tracing on, every other operation runs the traced layer path
/// (Layers.h) instead of the real entry point, and the result carries
/// per-layer metrics plus the tracing overhead against the untraced
/// operations of the same run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunSettings {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string ExpectedPath; ///< expected_memory.txt
  std::string WorkDir;      ///< Scratch space: daemon socket, traces.
  std::string HeaderLine;   ///< The common result header (one JSON line).
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

struct WorkloadResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureSamples; ///< The first few failures.
  std::vector<Metric> Metrics; ///< End-to-end, or per-layer when traced.
  std::vector<std::string> Notes; ///< Human-readable extras.

  void fail(const std::string &Why);
  void add(std::string Name, std::string Unit, double Value) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value});
  }
};

/// The workload names, in the order `all` runs them.
const std::vector<std::string> &workloadNames();

/// Runs one workload (must be one of workloadNames()).
WorkloadResult runWorkload(const RunSettings &S);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
