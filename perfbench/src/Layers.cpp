#include "Layers.h"

#include "ablate/Kernels.h"
#include "codegen/Codegen.h"
#include "frontend/Lower.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

using namespace tcc;
using namespace perfbench;

const std::vector<SuiteProgram> &perfbench::kernelSuite() {
  static const std::vector<SuiteProgram> Suite = [] {
    std::vector<SuiteProgram> S;
    for (const ablate::BenchKernel &K : ablate::benchKernels()) {
      SuiteProgram P;
      P.Name = K.Name;
      P.Source = &K.Source;
      P.Opts = driver::CompilerOptions::full();
      P.Config = K.Config;
      P.ToolArgs = {K.Name + ".c"};
      S.push_back(std::move(P));
    }
    for (const ablate::ParallelKernel &K : ablate::parallelKernels()) {
      SuiteProgram P;
      P.Name = K.Name;
      P.Procs = 4;
      P.Source = &K.Source;
      P.Opts = driver::CompilerOptions::parallel(4);
      P.Config.NumProcessors = 4;
      P.ToolArgs = {"-P", "4"};
      if (K.DisableInline) {
        P.Opts.EnableInline = false;
        P.ToolArgs.push_back("-fno-inline");
      }
      P.ToolArgs.push_back(K.Name + ".c");
      S.push_back(std::move(P));
    }
    // The benchmark never writes reproducer bundles.
    for (SuiteProgram &P : S)
      P.Opts.ReproDir.clear();
    return S;
  }();
  return Suite;
}

//===----------------------------------------------------------------------===//
// Expected memory
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t FnvPrime = 0x100000001b3ull;

void fnvBytes(uint64_t &H, const void *Data, size_t N) {
  const auto *B = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= B[I];
    H *= FnvPrime;
  }
}

void fnvName(uint64_t &H, const std::string &Name) {
  fnvBytes(H, Name.data(), Name.size());
  fnvBytes(H, "", 1);
}

void fnvWord(uint64_t &H, uint32_t W) {
  if (W == 0x80000000u) // -0.0f
    W = 0;
  unsigned char B[4] = {static_cast<unsigned char>(W),
                        static_cast<unsigned char>(W >> 8),
                        static_cast<unsigned char>(W >> 16),
                        static_cast<unsigned char>(W >> 24)};
  fnvBytes(H, B, 4);
}

/// Named globals of \p P with the extent each occupies: address order, up
/// to the next global.
std::vector<GlobalSpec> globalExtents(const titan::TitanProgram &P) {
  std::vector<std::pair<int64_t, std::string>> ByAddr;
  for (const auto &KV : P.GlobalAddresses)
    ByAddr.push_back({KV.second, KV.first});
  std::sort(ByAddr.begin(), ByAddr.end());
  std::vector<GlobalSpec> Out;
  for (size_t I = 0; I < ByAddr.size(); ++I) {
    int64_t End = I + 1 < ByAddr.size() ? ByAddr[I + 1].first : P.GlobalSize;
    Out.push_back({ByAddr[I].second, End - ByAddr[I].first});
  }
  return Out;
}

} // namespace

std::string perfbench::expectedLine(const ExpectedMemory &E) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(E.Digest));
  std::string L = E.Kernel + " " + std::to_string(E.Procs) + " " + Hex + " ";
  for (size_t I = 0; I < E.Globals.size(); ++I) {
    if (I)
      L += ',';
    L += E.Globals[I].Name + ":" + std::to_string(E.Globals[I].Bytes);
  }
  return L;
}

bool perfbench::loadExpected(const std::string &Path, ExpectedTable &Out,
                             std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    ExpectedMemory E;
    std::string Hex, Globals;
    if (!(LS >> E.Kernel >> E.Procs >> Hex >> Globals) || Hex.size() != 16) {
      Error = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
    E.Digest = std::strtoull(Hex.c_str(), nullptr, 16);
    std::istringstream GS(Globals);
    std::string Item;
    while (std::getline(GS, Item, ',')) {
      size_t Colon = Item.find(':');
      if (Colon == std::string::npos) {
        Error = Path + ":" + std::to_string(LineNo) + ": malformed global";
        return false;
      }
      E.Globals.push_back(
          {Item.substr(0, Colon), std::atoll(Item.c_str() + Colon + 1)});
    }
    Out[{E.Kernel, E.Procs}] = std::move(E);
  }
  return true;
}

bool perfbench::memoryDigest(const titan::TitanProgram &P,
                             const titan::TitanMachine &M,
                             const std::vector<GlobalSpec> &Globals,
                             uint64_t &Digest) {
  uint64_t H = FnvOffset;
  for (const GlobalSpec &G : Globals) {
    auto It = P.GlobalAddresses.find(G.Name);
    if (It == P.GlobalAddresses.end())
      return false;
    fnvName(H, G.Name);
    for (int64_t W = 0; W < G.Bytes / 4; ++W)
      fnvWord(H, static_cast<uint32_t>(M.readInt(It->second + 4 * W)));
  }
  Digest = H;
  return true;
}

uint64_t perfbench::wordsDigest(
    const std::vector<std::pair<std::string, std::vector<uint32_t>>> &G) {
  uint64_t H = FnvOffset;
  for (const auto &[Name, Words] : G) {
    fnvName(H, Name);
    for (uint32_t W : Words)
      fnvWord(H, W);
  }
  return H;
}

KernelOutcome perfbench::checkKernel(const SuiteProgram &K,
                                     const driver::RunOutcome &Out,
                                     const ExpectedTable &Expected) {
  KernelOutcome R;
  if (!Out.Run.Ok) {
    R.Error = K.Name + ": " + Out.Run.Error;
    return R;
  }
  auto It = Expected.find({K.Name, K.Procs});
  if (It == Expected.end()) {
    R.Error = K.Name + ": no expected memory for P=" + std::to_string(K.Procs);
    return R;
  }
  uint64_t Digest = 0;
  if (!memoryDigest(Out.Compile->Machine, *Out.Machine, It->second.Globals,
                    Digest) ||
      Digest != It->second.Digest) {
    R.Error = K.Name + ": wrong memory (P=" + std::to_string(K.Procs) + ")";
    return R;
  }
  const titan::RunResult &Run = Out.Run;
  bool Region = Run.RegionCycles != 0;
  double Cycles = static_cast<double>(Region ? Run.RegionCycles : Run.Cycles);
  double Flops = static_cast<double>(Region ? Run.RegionFlops : Run.Flops);
  R.Mflops = Cycles ? Flops * K.Config.ClockMHz / Cycles : 0.0;
  for (const titan::TitanFunction &F : Out.Compile->Machine.Functions)
    R.CodeInstrs += F.Code.size();
  R.Ok = true;
  return R;
}

SuiteQuality
perfbench::suiteQuality(const std::vector<KernelOutcome> &Outcomes) {
  SuiteQuality Q;
  const std::vector<SuiteProgram> &Suite = kernelSuite();
  double LogSum[2] = {0.0, 0.0};
  unsigned N[2] = {0, 0};
  for (size_t I = 0; I < Outcomes.size() && I < Suite.size(); ++I) {
    Q.CodeInstrsTotal += Outcomes[I].CodeInstrs;
    // A kernel whose region executes no flops (constprop deletes the
    // whole body) has no MFLOPS to average.
    if (Outcomes[I].Mflops <= 0.0)
      continue;
    int Group = Suite[I].Procs > 1 ? 1 : 0;
    LogSum[Group] += std::log(Outcomes[I].Mflops);
    ++N[Group];
  }
  Q.MflopsGeomeanP1 = N[0] ? std::exp(LogSum[0] / N[0]) : 0.0;
  Q.MflopsGeomeanP4 = N[1] ? std::exp(LogSum[1] / N[1]) : 0.0;
  return Q;
}

//===----------------------------------------------------------------------===//
// The traced layer-by-layer path
//===----------------------------------------------------------------------===//

namespace {

// compileSource's environment hooks, mirrored so the traced path
// compiles under the same configuration.
bool envVerifyEach() {
  const char *V = std::getenv("TCC_VERIFY_EACH");
  return V && *V && std::string(V) != "0";
}

std::string faultInjectSpec(const driver::CompilerOptions &Opts) {
  std::string Spec = Opts.FaultInject;
  if (const char *Env = std::getenv("TCC_FAULT_INJECT"); Env && *Env) {
    if (!Spec.empty())
      Spec += ',';
    Spec += Env;
  }
  return Spec;
}

} // namespace

std::unique_ptr<driver::CompileResult>
perfbench::tracedCompile(const std::string &Source,
                         const driver::CompilerOptions &Opts,
                         const TraceSite &Site) {
  ScopedSpan Compile(Site.T, "compile", Site.Op, Site.Parent);
  const uint32_t Me = Compile.id();
  LayerCounters Local;
  LayerCounters &C = Site.Counters ? *Site.Counters : Local;
  ++C.Compiles;

  auto R = std::make_unique<driver::CompileResult>();
  R->IL = std::make_unique<il::Program>();
  il::Program &P = *R->IL;

  Lexer Lex(Source, R->Diags);
  std::vector<Token> Tokens;
  {
    ScopedSpan S(Site.T, "lexer", Site.Op, Me);
    Tokens = Lex.lexAll();
  }
  C.Tokens += Tokens.size();

  ast::AstContext AstCtx;
  std::optional<Parser> Parse;
  ast::TranslationUnit TU;
  {
    ScopedSpan S(Site.T, "parser", Site.Op, Me);
    Parse.emplace(std::move(Tokens), AstCtx, P.getTypes(), R->Diags);
    TU = Parse->parseTranslationUnit();
  }
  if (R->Diags.hasErrors())
    return R;
  {
    ScopedSpan S(Site.T, "frontend", Site.Op, Me);
    lowerTranslationUnit(TU, P, R->Diags);
  }
  if (R->Diags.hasErrors())
    return R;

  FaultInjector Injector;
  {
    ScopedSpan S(Site.T, "pipeline", Site.Op, Me);
    pipeline::PipelineOptions PipeOpts = driver::makePipelineOptions(Opts);
    if (!Injector.addSpecs(faultInjectSpec(Opts), R->Diags))
      return R;

    pipeline::PassManagerConfig Config;
    Config.Sandbox.Enabled = Opts.SandboxPasses;
    Config.Sandbox.PassBudgetMs = Opts.PassBudgetMs;
    Config.Sandbox.StmtGrowthFactor = Opts.StmtGrowthFactor;
    Config.Sandbox.StmtGrowthSlack = Opts.StmtGrowthSlack;
    Config.Sandbox.ReproDir = Opts.ReproDir;
    Config.Sandbox.Faults = Injector.empty() ? nullptr : &Injector;
    Config.VerifyEach = Opts.VerifyEach || envVerifyEach();
    Config.Mode = Opts.WholeProgram ? pipeline::PipelineMode::WholeProgram
                                    : pipeline::PipelineMode::FunctionAtATime;
    Config.CacheFile = Opts.CacheFile;
    Config.CacheConfig = driver::configFingerprint(Opts);
    Config.ResultCache = Opts.ResultCache;
    Config.SharedAnalyses = Opts.SharedAnalyses;

    pipeline::PassManager PM(std::move(PipeOpts), std::move(Config));
    const std::string Spec =
        Opts.Passes.empty() ? Opts.pipelineSpec() : Opts.Passes;
    if (!PM.addPipeline(Spec, R->Diags))
      return R;
    R->Telemetry = PM.run(P, R->Diags, R->Remarks, R->Stats);
  }
  for (const remarks::PassRecord &Rec : R->Telemetry.Passes)
    C.PassMs[Rec.Pass] += Rec.Millis;
  C.FnCacheHits += R->Telemetry.cacheHits();
  C.StmtsAfter += pipeline::PassManager::countIL(P).Stmts;
  if (R->Diags.hasErrors())
    return R;

  codegen::CodegenOptions CGOpts;
  CGOpts.EnableDepScheduling = Opts.EnableDepScheduling;
  {
    ScopedSpan S(Site.T, "codegen", Site.Op, Me);
    R->Machine = codegen::generateProgram(P, R->Diags, CGOpts);
  }
  for (const titan::TitanFunction &F : R->Machine.Functions)
    C.CodeInstrs += F.Code.size();
  return R;
}

driver::RunOutcome
perfbench::tracedCompileAndRun(const std::string &Source,
                               const driver::CompilerOptions &Opts,
                               const titan::TitanConfig &Config,
                               const TraceSite &Site) {
  driver::RunOutcome Out;
  Out.Compile = tracedCompile(Source, Opts, Site);
  if (!Out.Compile->ok()) {
    Out.Run.Error = "compilation failed:\n" + Out.Compile->Diags.str();
    return Out;
  }
  {
    ScopedSpan S(Site.T, "titan", Site.Op, Site.Parent);
    Out.Machine =
        std::make_unique<titan::TitanMachine>(Out.Compile->Machine, Config);
    Out.Run = Out.Machine->run("main");
  }
  if (Site.Counters)
    Site.Counters->SimInstrs += Out.Run.Instructions;
  return Out;
}

fuzz::OracleOptions perfbench::fuzzOracleOptions(uint64_t ProgramSeed) {
  fuzz::OracleOptions OO;
  OO.Variants = 5;
  OO.WildOrders = false;
  OO.SampleSeed = ProgramSeed;
  OO.ReproDir.clear();
  return OO;
}

bool perfbench::oracleOk(const fuzz::OracleResult &R, std::string &Why) {
  if (!R.RefOk) {
    Why = R.RefError;
    return false;
  }
  if (const fuzz::VariantResult *Bad = R.firstBad()) {
    Why = std::string(fuzz::divergenceClassName(Bad->Class)) + " under '" +
          Bad->Spec + "': " + Bad->Detail;
    return false;
  }
  return true;
}

bool perfbench::tracedOracle(const std::string &Source,
                             const fuzz::OracleOptions &OO,
                             const TraceSite &Site, std::string &Why) {
  ScopedSpan Oracle(Site.T, "fuzz.oracle", Site.Op, Site.Parent);
  TraceSite Inner = Site;
  Inner.Parent = Oracle.id();

  // The oracle's -O0 reference and run configuration.
  driver::CompilerOptions RefOpts = driver::CompilerOptions::noOpt();
  RefOpts.ReproDir.clear();
  titan::TitanConfig RunConfig;
  RunConfig.MaxInstructions = OO.MaxInstructions;

  driver::RunOutcome Ref =
      tracedCompileAndRun(Source, RefOpts, RunConfig, Inner);
  if (!Ref.Compile->ok() || !Ref.Run.Ok) {
    Why = "reference failed: " + Ref.Run.Error;
    return false;
  }
  const std::vector<GlobalSpec> Globals = globalExtents(Ref.Compile->Machine);
  uint64_t RefDigest = 0;
  memoryDigest(Ref.Compile->Machine, *Ref.Machine, Globals, RefDigest);

  for (const std::string &Spec :
       fuzz::sampleVariantSpecs(OO.SampleSeed, OO.Variants, OO.WildOrders)) {
    driver::RunOutcome Var = tracedCompileAndRun(
        Source, fuzz::oracleVariantOptions(Spec, OO), RunConfig, Inner);
    uint64_t VarDigest = 0;
    if (!Var.Compile->ok() || !Var.Run.Ok) {
      Why = "variant '" + Spec + "' failed: " + Var.Run.Error;
      return false;
    }
    if (!Var.Compile->Telemetry.Faults.empty()) {
      Why = "variant '" + Spec + "' contained a pass fault";
      return false;
    }
    if (!memoryDigest(Var.Compile->Machine, *Var.Machine, Globals,
                      VarDigest) ||
        VarDigest != RefDigest) {
      Why = "variant '" + Spec + "' diverges from -O0 memory";
      return false;
    }
  }
  return true;
}
