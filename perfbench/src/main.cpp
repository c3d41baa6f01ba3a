//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench — the titan-cc benchmark driver.
///
///   perfbench --workload kernels|fuzz|daemon|all --seed N --seconds S
///             --trace 0|1 --expected FILE [--work-dir DIR] [--rev REV]
///   perfbench --write-expected
///
/// Prints a header line, a human-readable report, and as its last line
/// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits
/// 1 when any correctness check failed, 2 on a usage error.
/// --write-expected prints expected_memory.txt from the -O0 build.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

using namespace tcc;
using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kernels|fuzz|daemon|all --seed N --seconds S --trace 0|1 "
               "--expected FILE [--work-dir DIR] [--rev REV]\n"
               "       perfbench --write-expected\n",
               Why);
  return 2;
}

/// Prints expected_memory.txt: each suite program's named-global memory
/// digest under the -O0 build.
int writeExpected() {
  std::printf("# Named-global memory digests of the kernel suite, one line "
              "per kernel and\n# processor count: kernel procs "
              "fnv1a64-digest name:bytes,...\n# Generated from the -O0 "
              "build by `perfbench --write-expected`, then frozen.\n");
  for (const SuiteProgram &K : kernelSuite()) {
    driver::CompilerOptions O0 = driver::CompilerOptions::noOpt();
    O0.ReproDir.clear();
    driver::RunOutcome Out = driver::compileAndRun(*K.Source, O0, K.Config);
    if (!Out.Run.Ok) {
      std::fprintf(stderr, "perfbench: %s at -O0: %s\n", K.Name.c_str(),
                   Out.Run.Error.c_str());
      return 1;
    }
    ExpectedMemory E;
    E.Kernel = K.Name;
    E.Procs = K.Procs;
    // Declared sizes, not layout extents: an optimized build may place
    // other data in the alignment padding after a global.
    for (const auto &G : Out.Compile->IL->getGlobals())
      E.Globals.push_back({G->getName(), G->getType()->getSizeInBytes()});
    std::sort(E.Globals.begin(), E.Globals.end(),
              [](const GlobalSpec &A, const GlobalSpec &B) {
                return A.Name < B.Name;
              });
    memoryDigest(Out.Compile->Machine, *Out.Machine, E.Globals, E.Digest);
    std::printf("%s\n", expectedLine(E).c_str());
  }
  return 0;
}

std::string headerLine(const RunSettings &S, const std::string &Rev) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"header\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"git_rev\": \"%s\", \"build_type\": \"%s\", "
                "\"host_cores\": %u, \"run_seconds\": %.17g, \"trace\": %d}}",
                S.Workload.c_str(), static_cast<unsigned long long>(S.Seed),
                Rev.c_str(), PERFBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency(), S.Seconds,
                S.Trace ? 1 : 0);
  return Buf;
}

bool validToken(const std::string &S) {
  return !S.empty() && S.size() <= 64 &&
         std::all_of(S.begin(), S.end(), [](char C) {
           return std::isalnum(static_cast<unsigned char>(C)) || C == '-' ||
                  C == '_' || C == '.' || C == ':';
         });
}

} // namespace

int main(int argc, char **argv) {
  RunSettings S;
  std::string Rev = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--write-expected")
      return writeExpected();
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      S.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      S.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = !Val.empty() && *End == '\0';
    } else if (Arg == "--seconds") {
      S.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = !Val.empty() && *End == '\0' && S.Seconds > 0 &&
                    S.Seconds <= 120;
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        return usage("--trace takes 0 or 1");
      S.Trace = Val == "1";
    } else if (Arg == "--expected") {
      S.ExpectedPath = Val;
    } else if (Arg == "--work-dir") {
      S.WorkDir = Val;
    } else if (Arg == "--rev") {
      if (!validToken(Val))
        return usage("malformed --rev");
      Rev = Val;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  const std::vector<std::string> &Names = workloadNames();
  if (!HaveWorkload || (S.Workload != "all" &&
                        std::find(Names.begin(), Names.end(), S.Workload) ==
                            Names.end()))
    return usage("--workload must be kernels, fuzz, daemon or all");
  if (!HaveSeed || !HaveSeconds || S.ExpectedPath.empty())
    return usage("--seed, --seconds (0 < s <= 120) and --expected are "
                 "required");
  if (S.WorkDir.empty())
    S.WorkDir = ".";
  std::error_code EC;
  std::filesystem::create_directories(S.WorkDir, EC);

  std::vector<std::string> Run =
      S.Workload == "all" ? Names : std::vector<std::string>{S.Workload};
  const bool Prefix = Run.size() > 1;
  uint64_t Attempted = 0, Failed = 0;
  std::string Metrics;
  for (const std::string &W : Run) {
    RunSettings One = S;
    One.Workload = W;
    One.HeaderLine = headerLine(One, Rev);
    std::printf("%s\n", One.HeaderLine.c_str());
    std::fflush(stdout);
    WorkloadResult R = runWorkload(One);
    Attempted += R.Attempted;
    Failed += R.Failed;
    std::printf("== %s (%s) ==\n", W.c_str(),
                S.Trace ? "traced, per-layer" : "end-to-end");
    for (const std::string &N : R.Notes)
      std::printf("  %s\n", N.c_str());
    for (const Metric &M : R.Metrics) {
      std::printf("  %-28s %16.6f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    Metrics.empty() ? "" : ", ",
                    Prefix ? (W + ".").c_str() : "", M.Name.c_str(), M.Value,
                    M.Unit.c_str());
      Metrics += Buf;
    }
    for (const std::string &F : R.FailureSamples)
      std::fprintf(stderr, "perfbench: %s: FAILED: %s\n", W.c_str(),
                   F.c_str());
  }
  Attempted = std::max<uint64_t>(Attempted, 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Failed ? "false" : "true",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  return Failed ? 1 : 0;
}
