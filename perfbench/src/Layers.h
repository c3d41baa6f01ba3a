//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark compiles and how it checks and times it:
///
///  - the 13-program kernel suite (the paper's bench kernels at P=1, the
///    Livermore-style spreading kernels at P=4);
///  - the frozen named-global memory digests those programs must
///    reproduce (expected_memory.txt, generated from the -O0 build);
///  - the traced layer-by-layer path: driver::compileSource,
///    driver::compileAndRun and fuzz::runOracle re-expressed as calls to
///    each layer's public function with a span around each call.  The
///    benchmark's tests hold it byte-identical to the real entry points.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Trace.h"

#include "driver/Compiler.h"
#include "fuzz/Oracle.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One fixed program of the kernel suite.
struct SuiteProgram {
  std::string Name; ///< Kernel name, e.g. "daxpy" or "stencil2d".
  int Procs = 1;    ///< Simulated processors it compiles for and runs on.
  const std::string *Source = nullptr;
  tcc::driver::CompilerOptions Opts;
  tcc::titan::TitanConfig Config;
  std::vector<std::string> ToolArgs; ///< The same compile as `tcc` argv.
};

/// The 7 ablate::benchKernels() at P=1 with full options, then the 6
/// ablate::parallelKernels() with CompilerOptions::parallel(4) (inlining
/// off where the kernel asks for it).
const std::vector<SuiteProgram> &kernelSuite();

/// A named global and its size in bytes.
struct GlobalSpec {
  std::string Name;
  int64_t Bytes = 0;
};

/// One line of expected_memory.txt.
struct ExpectedMemory {
  std::string Kernel;
  int Procs = 1;
  uint64_t Digest = 0;
  std::vector<GlobalSpec> Globals; ///< Sorted by name.
};

using ExpectedTable = std::map<std::pair<std::string, int>, ExpectedMemory>;

/// Parses expected_memory.txt; false with \p Error on a malformed file.
bool loadExpected(const std::string &Path, ExpectedTable &Out,
                  std::string &Error);

/// Renders one expected_memory.txt line.
std::string expectedLine(const ExpectedMemory &E);

/// FNV-1a digest over each global's name and words.  -0.0f reads as
/// +0.0f: the two are equal and constant folding may normalize the sign.
/// False when a global is missing from \p P.
bool memoryDigest(const tcc::titan::TitanProgram &P,
                  const tcc::titan::TitanMachine &M,
                  const std::vector<GlobalSpec> &Globals, uint64_t &Digest);

/// The digest of raw little-endian words, for hand-computed memory.
uint64_t wordsDigest(const std::vector<std::pair<std::string,
                                                 std::vector<uint32_t>>> &G);

/// Generated-code quality of one suite program.
struct KernelOutcome {
  bool Ok = false;
  std::string Error;
  double Mflops = 0.0;     ///< Region scope when marked, else whole run.
  uint64_t CodeInstrs = 0; ///< Emitted Titan instructions.
};

/// Checks one compiled-and-run suite program against its frozen digest.
KernelOutcome checkKernel(const SuiteProgram &K,
                          const tcc::driver::RunOutcome &Out,
                          const ExpectedTable &Expected);

/// The suite-level code quality: MFLOPS geomeans and code size.
struct SuiteQuality {
  double MflopsGeomeanP1 = 0.0; ///< Bench kernels that execute flops.
  double MflopsGeomeanP4 = 0.0; ///< Parallel kernels that execute flops.
  uint64_t CodeInstrsTotal = 0;
  bool operator==(const SuiteQuality &O) const {
    return MflopsGeomeanP1 == O.MflopsGeomeanP1 &&
           MflopsGeomeanP4 == O.MflopsGeomeanP4 &&
           CodeInstrsTotal == O.CodeInstrsTotal;
  }
};

/// Combines one outcome per suite program (kernelSuite() order).
SuiteQuality suiteQuality(const std::vector<KernelOutcome> &Outcomes);

/// Counts the traced path takes where each layer does its work.
struct LayerCounters {
  uint64_t Compiles = 0;
  uint64_t Tokens = 0;
  uint64_t StmtsAfter = 0; ///< IL statements after the pipeline.
  uint64_t CodeInstrs = 0; ///< Emitted Titan instructions.
  uint64_t SimInstrs = 0;  ///< Simulated Titan instructions.
  uint64_t FnCacheHits = 0;
  std::map<std::string, double> PassMs; ///< From CompilationTelemetry.
};

/// Where one traced call records: the tracer, the op and the parent span.
struct TraceSite {
  Tracer *T = nullptr;
  uint64_t Op = 0;
  uint32_t Parent = 0;
  LayerCounters *Counters = nullptr;
};

/// driver::compileSource as a sequence of layer calls, each in a span
/// ("lexer", "parser", "frontend", "pipeline", "codegen") under one
/// "compile" span.  Stage capture is not supported.
std::unique_ptr<tcc::driver::CompileResult>
tracedCompile(const std::string &Source,
              const tcc::driver::CompilerOptions &Opts, const TraceSite &Site);

/// driver::compileAndRun over tracedCompile, with the simulator in a
/// "titan" span.
tcc::driver::RunOutcome
tracedCompileAndRun(const std::string &Source,
                    const tcc::driver::CompilerOptions &Opts,
                    const tcc::titan::TitanConfig &Config,
                    const TraceSite &Site);

/// fuzz::runOracle's verdict, computed over the traced path: the -O0
/// reference and every sampled variant compiled and run, and memory
/// compared word by word (signed zeros equal).  True when every variant
/// agrees with the reference and no pass fault was contained; \p Why
/// names the first disagreement otherwise.
bool tracedOracle(const std::string &Source, const tcc::fuzz::OracleOptions &OO,
                  const TraceSite &Site, std::string &Why);

/// The oracle options every fuzz program runs under: -O0 plus 5 variants
/// in registered order, no wild orders, no bundles.
tcc::fuzz::OracleOptions fuzzOracleOptions(uint64_t ProgramSeed);

/// runOracle's verdict reduced to the traced oracle's: true when the
/// reference ran and every variant is Ok.
bool oracleOk(const tcc::fuzz::OracleResult &R, std::string &Why);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
