//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own checks: the traced layer path measures the same
/// program as the real entry points, its spans account for the compile
/// wall time, the frozen memory digests agree with hand-computed memory,
/// and the benchmark's exact figures repeat run to run.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Trace.h"

#include "fuzz/Generator.h"
#include "il/ILPrinter.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

using namespace tcc;
using namespace perfbench;

namespace {

/// Seeds for claims: the baseline every change is measured on, and a
/// held-out seed a claimed gain must also hold on.
constexpr uint64_t BaselineSeed = 1;
constexpr uint64_t HeldOutSeed = 2;

const ExpectedTable &expected() {
  static const ExpectedTable Table = [] {
    ExpectedTable T;
    std::string Error;
    EXPECT_TRUE(loadExpected(PERFBENCH_EXPECTED_FILE, T, Error)) << Error;
    return T;
  }();
  return Table;
}

/// Everything codegen produced, rendered for byte comparison.
std::string renderMachine(const titan::TitanProgram &P) {
  std::ostringstream OS;
  for (const titan::TitanFunction &F : P.Functions)
    OS << titan::disassemble(F) << "\n";
  for (const auto &KV : P.GlobalAddresses)
    OS << KV.first << "@" << KV.second << "\n";
  OS << "size " << P.GlobalSize << " stack " << P.StackBase << "\n";
  OS.write(reinterpret_cast<const char *>(P.InitialImage.data()),
           static_cast<std::streamsize>(P.InitialImage.size()));
  return OS.str();
}

uint64_t digestOf(const SuiteProgram &K, const driver::RunOutcome &Out) {
  uint64_t D = 0;
  const ExpectedMemory &E = expected().at({K.Name, K.Procs});
  EXPECT_TRUE(memoryDigest(Out.Compile->Machine, *Out.Machine, E.Globals, D));
  return D;
}

uint32_t floatWord(float F) {
  uint32_t W;
  std::memcpy(&W, &F, sizeof(W));
  return W;
}

TEST(PerfbenchTest, TracedPathIsByteIdenticalToCompileAndRun) {
  for (const SuiteProgram &K : kernelSuite()) {
    SCOPED_TRACE(K.Name + " P=" + std::to_string(K.Procs));
    driver::RunOutcome Direct =
        driver::compileAndRun(*K.Source, K.Opts, K.Config);
    Tracer T;
    LayerCounters C;
    driver::RunOutcome Traced =
        tracedCompileAndRun(*K.Source, K.Opts, K.Config, {&T, 1, 0, &C});
    ASSERT_TRUE(Direct.Run.Ok) << Direct.Run.Error;
    ASSERT_TRUE(Traced.Run.Ok) << Traced.Run.Error;
    EXPECT_EQ(il::printProgram(*Direct.Compile->IL),
              il::printProgram(*Traced.Compile->IL));
    EXPECT_EQ(renderMachine(Direct.Compile->Machine),
              renderMachine(Traced.Compile->Machine));
    EXPECT_EQ(digestOf(K, Direct), digestOf(K, Traced));
    EXPECT_EQ(Direct.Run.Cycles, Traced.Run.Cycles);
    EXPECT_EQ(Direct.Run.Instructions, Traced.Run.Instructions);
    EXPECT_EQ(Direct.Run.RegionFlops, Traced.Run.RegionFlops);
    EXPECT_EQ(C.SimInstrs, Traced.Run.Instructions);
  }
}

TEST(PerfbenchTest, LayerSpansCoverCompileWallTime) {
  // The bar: the layer spans add up to within 5% of the measured
  // compile wall time.  Aggregated over many compiles so one scheduler
  // hiccup cannot decide it.
  Tracer T;
  uint64_t Op = 0;
  for (int Round = 0; Round < 20; ++Round)
    for (const SuiteProgram &K : kernelSuite()) {
      ScopedSpan Root(&T, "kernel", ++Op, 0);
      tracedCompileAndRun(*K.Source, K.Opts, K.Config,
                          {&T, Op, Root.id(), nullptr});
    }
  std::map<std::string, LayerTime> L = aggregateSpans({&T});
  const LayerTime &Compile = L.at("compile");
  double Layers = 0.0;
  for (const char *Name : {"lexer", "parser", "frontend", "pipeline",
                           "codegen"})
    Layers += L.at(Name).InclusiveMs;
  EXPECT_NEAR(Layers + Compile.SelfMs, Compile.InclusiveMs,
              1e-6 * Compile.InclusiveMs);
  EXPECT_GE(Layers, 0.95 * Compile.InclusiveMs)
      << "unattributed " << Compile.SelfMs << " ms of "
      << Compile.InclusiveMs << " ms";
}

TEST(PerfbenchTest, FrozenDigestsMatchHandComputedMemory) {
  // daxpy: b[i] = i, c[i] = 1, a = b + 1.0 * c over 100 elements.
  std::vector<uint32_t> A, B, C;
  for (int I = 0; I < 100; ++I) {
    A.push_back(floatWord(static_cast<float>(I) + 1.0f));
    B.push_back(floatWord(static_cast<float>(I)));
    C.push_back(floatWord(1.0f));
  }
  const ExpectedMemory &Daxpy = expected().at({"daxpy", 1});
  ASSERT_EQ(Daxpy.Globals.size(), 3u);
  EXPECT_EQ(Daxpy.Globals[0].Name, "a");
  EXPECT_EQ(Daxpy.Globals[0].Bytes, 400);
  EXPECT_EQ(wordsDigest({{"a", A}, {"b", B}, {"c", C}}), Daxpy.Digest);

  // backsolve: x[i+1] = z[i] * (y[i] - x[i]) with x[0] = 1, y = 1,
  // z = 0.5 for i < 3998, in float; out = x[7].
  std::vector<float> X(4002, 0.0f);
  X[0] = 1.0f;
  for (int I = 0; I < 3998; ++I)
    X[I + 1] = 0.5f * (1.0f - X[I]);
  std::vector<uint32_t> XW, YW(4000, floatWord(1.0f)),
      ZW(4000, floatWord(0.5f));
  for (float F : X)
    XW.push_back(floatWord(F));
  const ExpectedMemory &Back = expected().at({"backsolve", 1});
  ASSERT_EQ(Back.Globals.size(), 4u);
  EXPECT_EQ(Back.Globals[0].Name, "out");
  EXPECT_EQ(Back.Globals[1].Bytes, 4002 * 4);
  EXPECT_EQ(wordsDigest({{"out", {floatWord(X[7])}},
                         {"x", XW},
                         {"y", YW},
                         {"z", ZW}}),
            Back.Digest);
}

TEST(PerfbenchTest, OptimizedSuiteMatchesFrozenDigests) {
  ASSERT_EQ(expected().size(), kernelSuite().size());
  for (const SuiteProgram &K : kernelSuite()) {
    driver::RunOutcome Out =
        driver::compileAndRun(*K.Source, K.Opts, K.Config);
    KernelOutcome KO = checkKernel(K, Out, expected());
    EXPECT_TRUE(KO.Ok) << KO.Error;
  }
}

std::vector<bool> fuzzVerdicts(uint64_t Seed, unsigned Programs) {
  std::vector<bool> V;
  for (unsigned I = 0; I < Programs; ++I) {
    uint64_t PS = fuzz::programSeed(Seed, I);
    std::string Why;
    V.push_back(oracleOk(
        fuzz::runOracle(fuzz::generateProgram(PS).Source,
                        fuzzOracleOptions(PS)),
        Why));
    EXPECT_TRUE(V.back()) << "program seed " << PS << ": " << Why;
  }
  return V;
}

TEST(PerfbenchTest, ExactFiguresRepeatAcrossRuns) {
  auto Quality = [] {
    std::vector<KernelOutcome> Outcomes;
    for (const SuiteProgram &K : kernelSuite())
      Outcomes.push_back(checkKernel(
          K, driver::compileAndRun(*K.Source, K.Opts, K.Config),
          expected()));
    return suiteQuality(Outcomes);
  };
  SuiteQuality First = Quality();
  EXPECT_GT(First.MflopsGeomeanP1, 0.0);
  EXPECT_GT(First.MflopsGeomeanP4, 0.0);
  EXPECT_GT(First.CodeInstrsTotal, 0u);
  EXPECT_TRUE(First == Quality());

  for (uint64_t Seed : {BaselineSeed, HeldOutSeed})
    EXPECT_EQ(fuzzVerdicts(Seed, 12), fuzzVerdicts(Seed, 12));
}

TEST(PerfbenchTest, TracedOracleAgreesWithRunOracle) {
  for (unsigned I = 0; I < 16; ++I) {
    uint64_t PS = fuzz::programSeed(BaselineSeed, I);
    std::string Source = fuzz::generateProgram(PS).Source;
    std::string WhyReal, WhyTraced;
    bool Real = oracleOk(fuzz::runOracle(Source, fuzzOracleOptions(PS)),
                         WhyReal);
    Tracer T;
    bool Traced =
        tracedOracle(Source, fuzzOracleOptions(PS), {&T, I, 0, nullptr},
                     WhyTraced);
    EXPECT_EQ(Real, Traced) << "program seed " << PS << ": " << WhyReal
                            << " / " << WhyTraced;
    // -O0 plus 5 variants: six compiles, six simulations.
    std::map<std::string, LayerTime> L = aggregateSpans({&T});
    EXPECT_EQ(L["compile"].Count, 6u);
    EXPECT_EQ(L["titan"].Count, 6u);
  }
}

} // namespace
