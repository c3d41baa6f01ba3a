#include "Workloads.h"

#include "Layers.h"
#include "Trace.h"

#include "driver/ToolMain.h"
#include "fuzz/Generator.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace tcc;
using namespace perfbench;

void WorkloadResult::fail(const std::string &Why) {
  ++Failed;
  if (FailureSamples.size() < 8)
    FailureSamples.push_back(Why);
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"kernels", "fuzz", "daemon"};
  return Names;
}

namespace {

/// Set-up runs this many times per run; setup_s is the median.
constexpr int SetupRepeats = 7;
/// Work between two host-speed calibrations.
constexpr double SliceSeconds = 0.5;
/// Closed-loop daemon clients, like `make -j4` through tcc-client.
constexpr unsigned DaemonClients = 4;
/// Share of daemon requests that are fresh generated programs.
constexpr unsigned FreshPercent = 20;
constexpr int ClientTimeoutMs = 60000;
/// The daemon's manifest grows with every fresh program it compiles, so
/// its peak RSS is read once it has served this many, not at the end of a
/// window whose fresh-program count follows the host's speed.
constexpr uint64_t RssAtFresh = 1000;

const char *const PipelinePasses[] = {"inline",   "whiletodo", "ivsub",
                                      "constprop", "dce",       "spread",
                                      "vectorize", "depopt"};

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double mean(const std::vector<double> &V) {
  return V.empty() ? 0.0
                   : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

Clock::duration seconds(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

double selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// One verified pass over the kernel suite, made during every
/// workload's set-up: it yields the generated-code quality metrics and
/// the per-kernel record the kernels loop holds later results to.
struct SuiteRecord {
  ExpectedTable Expected;
  std::vector<KernelOutcome> Outcomes;
  SuiteQuality Quality;
};

bool setUpSuite(const RunSettings &S, SuiteRecord &Rec, WorkloadResult &R) {
  Rec = SuiteRecord();
  std::string Error;
  if (!loadExpected(S.ExpectedPath, Rec.Expected, Error)) {
    R.fail(Error);
    return false;
  }
  bool Ok = true;
  for (const SuiteProgram &K : kernelSuite()) {
    driver::RunOutcome Out =
        driver::compileAndRun(*K.Source, K.Opts, K.Config);
    Rec.Outcomes.push_back(checkKernel(K, Out, Rec.Expected));
    if (!Rec.Outcomes.back().Ok) {
      R.fail("setup: " + Rec.Outcomes.back().Error);
      Ok = false;
    }
  }
  Rec.Quality = suiteQuality(Rec.Outcomes);
  return Ok;
}

/// One measured operation.
struct Sample {
  double Ms = 0.0;    ///< Raw wall-clock latency.
  uint32_t Slice = 0; ///< Which slice of the window it ran in.
  bool Cold = false;  ///< No result cache could serve it.
  bool Traced = false;
};

/// What a run measured, before it becomes metrics.
struct Measured {
  std::vector<double> SetupSeconds; ///< At nominal host speed.
  HostSpeed Speed;                  ///< Calibrations around the slices.
  std::vector<double> SliceSeconds; ///< Raw wall time of each slice.
  std::vector<Sample> Samples;
  uint64_t Completed = 0;
  double PeakRssMb = 0.0;
  SuiteQuality Quality;

  // Traced runs.
  std::vector<const Tracer *> Tracers;
  LayerCounters Counters;
  double FnCacheHitsPerOp = 0.0;
  double HotHitRatio = 0.0, HotEvictions = 0.0, Shed = 0.0;
  double QueueDepthMax = 0.0;
};

/// Runs one set-up and keeps its time at nominal host speed.
template <typename SetUpFn> bool timedSetup(Measured &M, SetUpFn &&SetUp) {
  HostSpeed Speed;
  Speed.calibrate();
  auto Start = Clock::now();
  bool Ok = SetUp();
  double S = millisSince(Start) / 1e3;
  Speed.calibrate();
  M.SetupSeconds.push_back(S * Speed.factor(0));
  return Ok;
}

/// Runs \p Op in a closed loop on this thread for \p Seconds of work, in
/// slices with a host-speed calibration before, between and after them.
/// Op(Slice) performs and records one operation.
template <typename OpFn>
void runSliced(double Seconds, Measured &M, OpFn &&Op) {
  M.Speed.calibrate();
  for (double Left = Seconds; Left > 0;) {
    auto Start = Clock::now();
    auto End = Start + seconds(std::min(SliceSeconds, Left));
    const uint32_t Slice = M.SliceSeconds.size();
    while (Clock::now() < End)
      Op(Slice);
    M.SliceSeconds.push_back(millisSince(Start) / 1e3);
    Left -= M.SliceSeconds.back();
    M.Speed.calibrate();
  }
}

void addEndToEnd(WorkloadResult &R, const Measured &M) {
  double FailRatio = double(R.Failed) / R.Attempted;
  double Elapsed = 0.0, RawElapsed = 0.0;
  for (size_t I = 0; I < M.SliceSeconds.size(); ++I) {
    Elapsed += M.SliceSeconds[I] * M.Speed.factor(I);
    RawElapsed += M.SliceSeconds[I];
  }
  std::vector<double> Latency, ColdLatency, RawLatency;
  for (const Sample &S : M.Samples) {
    double Ms = S.Ms * M.Speed.factor(S.Slice);
    Latency.push_back(Ms);
    RawLatency.push_back(S.Ms);
    if (S.Cold)
      ColdLatency.push_back(Ms);
  }
  R.add("setup_s", "s", percentile(M.SetupSeconds, 0.5));
  R.add("throughput_per_s", "1/s", Elapsed > 0 ? M.Completed / Elapsed : 0.0);
  R.add("latency_ms_p50", "ms", percentile(Latency, 0.50));
  R.add("latency_ms_p99", "ms", percentile(Latency, 0.99));
  R.add("success_ratio", "ratio", 1.0 - FailRatio);
  R.add("peak_rss_mb", "MB", M.PeakRssMb);
  R.add("mflops_geomean_p1", "MFLOPS", M.Quality.MflopsGeomeanP1);
  R.add("mflops_geomean_p4", "MFLOPS", M.Quality.MflopsGeomeanP4);
  R.add("code_instrs_total", "count",
        static_cast<double>(M.Quality.CodeInstrsTotal));
  R.add("cold_latency_ms_p50", "ms", percentile(ColdLatency, 0.50));

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "fail_ratio %.6g (%llu of %llu failed)",
                FailRatio, static_cast<unsigned long long>(R.Failed),
                static_cast<unsigned long long>(R.Attempted));
  R.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "latency samples %zu (%zu beyond p99), cold samples %zu, "
                "measured %.3f s in %zu slices",
                Latency.size(), Latency.size() / 100, ColdLatency.size(),
                RawElapsed, M.SliceSeconds.size());
  R.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "host speed factor %.4f; raw wall-clock: throughput %.2f/s, "
                "p50 %.4f ms, p99 %.4f ms",
                M.Speed.medianFactor(),
                RawElapsed > 0 ? M.Completed / RawElapsed : 0.0,
                percentile(RawLatency, 0.50), percentile(RawLatency, 0.99));
  R.Notes.push_back(Buf);
}

void addPerLayer(WorkloadResult &R, const Measured &M) {
  std::map<std::string, LayerTime> L = aggregateSpans(M.Tracers);
  const LayerCounters &C = M.Counters;
  std::vector<double> TracedMs, PlainMs;
  for (const Sample &S : M.Samples)
    (S.Traced ? TracedMs : PlainMs).push_back(S.Ms);
  const double Ops = TracedMs.empty() ? 1.0 : double(TracedMs.size());
  auto Inclusive = [&](const char *Name) {
    auto It = L.find(Name);
    return It == L.end() ? 0.0 : It->second.InclusiveMs;
  };
  auto PerOp = [&](const char *Name) { return Inclusive(Name) / Ops; };
  auto PerCall = [&](const char *Name) {
    auto It = L.find(Name);
    return It == L.end() || !It->second.Count
               ? 0.0
               : It->second.InclusiveMs / It->second.Count;
  };
  auto PerCompile = [&](uint64_t V) {
    return C.Compiles ? double(V) / C.Compiles : 0.0;
  };

  R.add("lexer.ms", "ms", PerOp("lexer"));
  R.add("lexer.tokens", "count", PerCompile(C.Tokens));
  R.add("parser.ms", "ms", PerOp("parser"));
  R.add("frontend.ms", "ms", PerOp("frontend"));
  R.add("pipeline.ms", "ms", PerOp("pipeline"));
  for (const char *Pass : PipelinePasses) {
    auto It = C.PassMs.find(Pass);
    R.add(std::string("pass.") + Pass + ".ms", "ms",
          It == C.PassMs.end() ? 0.0 : It->second / Ops);
  }
  R.add("pipeline.il_stmts_after", "count", PerCompile(C.StmtsAfter));
  R.add("pipeline.fn_cache_hits", "count",
        M.FnCacheHitsPerOp + C.FnCacheHits / Ops);
  R.add("codegen.ms", "ms", PerOp("codegen"));
  R.add("codegen.instrs", "count", PerCompile(C.CodeInstrs));
  double TitanMs = Inclusive("titan");
  R.add("titan.ms", "ms", TitanMs / Ops);
  R.add("titan.instructions", "count", C.SimInstrs / Ops);
  R.add("titan.minstr_per_s", "Minstr/s",
        TitanMs > 0 ? C.SimInstrs / (TitanMs * 1e3) : 0.0);
  R.add("fuzz.gen.ms", "ms", PerOp("fuzz.gen"));
  R.add("fuzz.oracle.ms", "ms", PerOp("fuzz.oracle"));
  R.add("server.connect_ms", "ms", PerCall("server.connect"));
  R.add("server.hot_ms", "ms", PerCall("server.hot"));
  R.add("server.cold_ms", "ms", PerCall("server.cold"));
  R.add("server.hot_hit_ratio", "ratio", M.HotHitRatio);
  R.add("server.hot_evictions", "count", M.HotEvictions);
  R.add("server.shed", "count", M.Shed);
  R.add("server.queue_depth_max", "count", M.QueueDepthMax);

  // The compile span's self time is what no layer span covers.
  auto Compile = L.find("compile");
  double CompileMs = Compile == L.end() ? 0.0 : Compile->second.InclusiveMs;
  double UnattributedMs = Compile == L.end() ? 0.0 : Compile->second.SelfMs;
  R.add("driver.unattributed_ms", "ms", UnattributedMs / Ops);
  R.add("trace.span_coverage_pct", "%",
        CompileMs > 0 ? 100.0 * (CompileMs - UnattributedMs) / CompileMs
                      : 0.0);
  double Plain = mean(PlainMs);
  R.add("trace.overhead_pct", "%",
        Plain > 0 ? 100.0 * (mean(TracedMs) / Plain - 1.0) : 0.0);
  R.add("trace.ops", "count", static_cast<double>(TracedMs.size()));

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "traced ops %zu, untraced ops %zu; raw per-op means: traced "
                "%.4f ms, untraced %.4f ms",
                TracedMs.size(), PlainMs.size(), mean(TracedMs), Plain);
  R.Notes.push_back(Buf);
}

void writeTrace(const RunSettings &S, const Measured &M, WorkloadResult &R) {
  const std::string Path = S.WorkDir + "/trace-" + S.Workload + "-seed" +
                           std::to_string(S.Seed) + ".jsonl";
  std::ofstream OS(Path);
  writeSpans(OS, S.HeaderLine, M.Tracers);
  if (!OS)
    R.fail("cannot write trace '" + Path + "'");
  else
    R.Notes.push_back("spans written to " + Path);
}

void finish(const RunSettings &S, Measured &M, WorkloadResult &R) {
  R.Attempted = std::max<uint64_t>({R.Attempted, R.Failed, 1});
  if (S.Trace) {
    addPerLayer(R, M);
    writeTrace(S, M, R);
  } else {
    addEndToEnd(R, M);
  }
}

//===----------------------------------------------------------------------===//
// kernels
//===----------------------------------------------------------------------===//

WorkloadResult runKernels(const RunSettings &S) {
  WorkloadResult R;
  Measured M;
  SuiteRecord Rec;
  for (int I = 0; I < SetupRepeats; ++I)
    if (!timedSetup(M, [&] { return setUpSuite(S, Rec, R); }))
      return R;
  M.Quality = Rec.Quality;

  const std::vector<SuiteProgram> &Suite = kernelSuite();
  std::vector<size_t> Order(Suite.size());
  std::iota(Order.begin(), Order.end(), 0);
  fuzz::Rng Shuffle(S.Seed);
  Tracer T;
  uint64_t Op = 0;
  runSliced(S.Seconds, M, [&](uint32_t Slice) {
    // A fresh seeded order for every pass over the suite.
    if (Op % Order.size() == 0)
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Shuffle.below(I)]);
    const size_t Index = Order[Op % Order.size()];
    const SuiteProgram &K = Suite[Index];
    const bool Traced = S.Trace && Op % 2 == 1;
    auto T0 = Clock::now();
    driver::RunOutcome Out;
    if (Traced) {
      ScopedSpan Root(&T, "kernel", Op, 0);
      Out = tracedCompileAndRun(*K.Source, K.Opts, K.Config,
                                {&T, Op, Root.id(), &M.Counters});
    } else {
      Out = driver::compileAndRun(*K.Source, K.Opts, K.Config);
    }
    // Every kernel compile is cold: no result cache is in the loop.
    M.Samples.push_back({millisSince(T0), Slice, /*Cold=*/true, Traced});
    ++R.Attempted;
    ++Op;
    KernelOutcome KO = checkKernel(K, Out, Rec.Expected);
    const KernelOutcome &First = Rec.Outcomes[Index];
    if (!KO.Ok)
      R.fail(KO.Error);
    else if (KO.Mflops != First.Mflops || KO.CodeInstrs != First.CodeInstrs)
      R.fail(K.Name + ": MFLOPS or code size differ from the set-up run");
    else
      ++M.Completed;
  });
  M.PeakRssMb = selfPeakRssMb();
  M.Tracers = {&T};
  finish(S, M, R);
  return R;
}

//===----------------------------------------------------------------------===//
// fuzz
//===----------------------------------------------------------------------===//

WorkloadResult runFuzz(const RunSettings &S) {
  WorkloadResult R;
  Measured M;
  SuiteRecord Rec;
  for (int I = 0; I < SetupRepeats; ++I)
    if (!timedSetup(M, [&] { return setUpSuite(S, Rec, R); }))
      return R;
  M.Quality = Rec.Quality;

  Tracer T;
  uint64_t Op = 0;
  runSliced(S.Seconds, M, [&](uint32_t Slice) {
    const uint64_t ProgramSeed = fuzz::programSeed(S.Seed, Op);
    const bool Traced = S.Trace && Op % 2 == 1;
    std::string Why;
    bool Ok = false;
    auto T0 = Clock::now();
    if (Traced) {
      ScopedSpan Root(&T, "fuzz.program", Op, 0);
      fuzz::GenProgram Prog;
      {
        ScopedSpan Gen(&T, "fuzz.gen", Op, Root.id());
        Prog = fuzz::generateProgram(ProgramSeed);
      }
      Ok = tracedOracle(Prog.Source, fuzzOracleOptions(ProgramSeed),
                        {&T, Op, Root.id(), &M.Counters}, Why);
    } else {
      fuzz::GenProgram Prog = fuzz::generateProgram(ProgramSeed);
      Ok = oracleOk(fuzz::runOracle(Prog.Source,
                                    fuzzOracleOptions(ProgramSeed)),
                    Why);
    }
    // No result cache: every compile is cold.
    M.Samples.push_back({millisSince(T0), Slice, /*Cold=*/true, Traced});
    ++R.Attempted;
    ++Op;
    if (Ok)
      ++M.Completed;
    else
      R.fail("program seed " + std::to_string(ProgramSeed) + ": " + Why);
  });
  M.PeakRssMb = selfPeakRssMb();
  M.Tracers = {&T};
  finish(S, M, R);
  return R;
}

//===----------------------------------------------------------------------===//
// daemon
//===----------------------------------------------------------------------===//

server::Server *ChildServer = nullptr;

extern "C" void onChildTerm(int) {
  if (ChildServer)
    ChildServer->requestDrain(); // Async-signal-safe.
}

/// A tccd-equivalent server::Server in a forked child process, so its
/// memory is measured apart from the clients'.  Fork happens while the
/// benchmark process runs no other thread.
class DaemonChild {
public:
  DaemonChild() = default;
  ~DaemonChild() { stop(); }
  DaemonChild(const DaemonChild &) = delete;
  DaemonChild &operator=(const DaemonChild &) = delete;

  bool start(const std::string &RunDir, std::string &Error);
  void stop();
  const std::string &socket() const { return Socket; }
  double peakRssMb() const;

private:
  pid_t Pid = -1;
  std::string Dir;
  std::string Socket;
};

bool ping(const std::string &Socket, int TimeoutMs, std::string &Health) {
  server::Client C(TimeoutMs);
  server::Request Req;
  Req.Kind = "ping";
  server::Response Resp;
  std::string Error;
  if (!C.connect(Socket, Error) || !C.roundTrip(Req, Resp, Error))
    return false;
  Health = Resp.Out;
  return true;
}

double healthField(const std::string &Health, const std::string &Key) {
  size_t At = Health.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return 0.0;
  return std::strtod(Health.c_str() + At + Key.size() + 3, nullptr);
}

bool DaemonChild::start(const std::string &RunDir, std::string &Error) {
  Dir = RunDir;
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create '" + Dir + "': " + EC.message();
    return false;
  }
  Socket = Dir + "/tccd.sock";
  server::ServerOptions Opts;
  Opts.SocketPath = Socket;
  Opts.CacheFile = Dir + "/tcc-cache";
  Opts.Workers = DaemonClients;

  std::fflush(nullptr);
  const pid_t Parent = getpid();
  Pid = fork();
  if (Pid < 0) {
    Error = "fork failed";
    return false;
  }
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(1);
    {
      server::Server Daemon(Opts);
      DiagnosticEngine Diags;
      if (!Daemon.start(Diags)) {
        std::fprintf(stderr, "perfbench: daemon: %s\n", Diags.str().c_str());
        _exit(1);
      }
      ChildServer = &Daemon;
      std::signal(SIGTERM, onChildTerm);
      Daemon.run();
      Daemon.shutdown();
      ChildServer = nullptr;
    }
    _exit(0);
  }

  const auto Deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < Deadline) {
    int Status = 0;
    if (waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Error = "daemon exited during start";
      return false;
    }
    std::string Health;
    if (ping(Socket, 1000, Health))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Error = "daemon did not answer within 20 s";
  stop();
  return false;
}

void DaemonChild::stop() {
  if (Pid > 0) {
    kill(Pid, SIGTERM);
    const auto Deadline = Clock::now() + std::chrono::seconds(10);
    int Status = 0;
    while (waitpid(Pid, &Status, WNOHANG) != Pid) {
      if (Clock::now() >= Deadline) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
  }
  if (!Dir.empty()) {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    Dir.clear();
  }
}

double DaemonChild::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// The response a direct `tcc` run gives for \p Req.
bool directResponse(const server::Request &Req, server::Response &Out,
                    std::string &Error) {
  driver::ToolInvocation Inv;
  if (!driver::parseToolArgs(Req.Args, Inv, Error))
    return false;
  driver::CompilerSession Fresh;
  std::ostringstream O, E;
  Out.Exit = driver::runToolInvocation(Inv, Req.Source, Fresh, O, E);
  Out.Out = O.str();
  Out.Err = E.str();
  return true;
}

bool sameResponse(const server::Response &A, const server::Response &B) {
  return A.Exit == B.Exit && A.Out == B.Out && A.Err == B.Err;
}

server::Request freshRequest(uint64_t Seed, uint64_t Index) {
  server::Request Req;
  Req.Args = {"gen-" + std::to_string(Index) + ".c"};
  Req.Source = fuzz::generateProgram(fuzz::programSeed(Seed, Index)).Source;
  return Req;
}

/// One fresh connection, one request, as tcc-client does it.
bool requestOnce(const std::string &Socket, const server::Request &Req,
                 server::Response &Resp, std::string &Error, Tracer *T,
                 uint64_t Op, uint32_t Parent, const char *RoundTrip) {
  server::Client C(ClientTimeoutMs);
  {
    ScopedSpan Connect(T, "server.connect", Op, Parent);
    if (!C.connect(Socket, Error))
      return false;
  }
  ScopedSpan Trip(T, RoundTrip, Op, Parent);
  return C.roundTrip(Req, Resp, Error);
}

struct ClientLog {
  Tracer T;
  uint64_t Attempted = 0, Completed = 0;
  std::vector<std::string> Failures;
  std::vector<Sample> Samples;
  std::vector<std::pair<uint64_t, server::Response>> Fresh;
};

WorkloadResult runDaemon(const RunSettings &S) {
  WorkloadResult R;
  Measured M;
  SuiteRecord Rec;
  DaemonChild Daemon;
  const std::string RunDir =
      S.WorkDir + "/daemon-" + std::to_string(getpid());
  std::vector<server::Request> KernelReqs;
  std::vector<server::Response> KernelResps;

  auto SetUp = [&] {
    if (!setUpSuite(S, Rec, R))
      return false;
    std::string Error;
    if (!Daemon.start(RunDir, Error)) {
      R.fail("setup: " + Error);
      return false;
    }
    KernelReqs.clear();
    KernelResps.clear();
    for (const SuiteProgram &K : kernelSuite()) {
      server::Request Req;
      Req.Args = K.ToolArgs;
      Req.Source = *K.Source;
      server::Response Want, Got;
      if (!directResponse(Req, Want, Error) || Want.Exit != 0) {
        R.fail("setup: direct " + K.Name + ": " + Error + Want.Err);
        return false;
      }
      // Warm the daemon: the measured window starts with its caches hot.
      if (!requestOnce(Daemon.socket(), Req, Got, Error, nullptr, 0, 0, "") ||
          !sameResponse(Want, Got)) {
        R.fail("setup: daemon " + K.Name + ": " + Error);
        return false;
      }
      KernelReqs.push_back(std::move(Req));
      KernelResps.push_back(std::move(Want));
    }
    return true;
  };
  for (int I = 0; I < SetupRepeats; ++I) {
    Daemon.stop();
    if (!timedSetup(M, SetUp))
      return R;
  }
  M.Quality = Rec.Quality;

  std::string Before, After;
  if (!ping(Daemon.socket(), ClientTimeoutMs, Before)) {
    R.fail("ping before the window failed");
    return R;
  }

  // The window runs in slices: the clients pause at a barrier between
  // slices while this thread calibrates the host speed.
  std::vector<ClientLog> Logs(DaemonClients);
  std::barrier Sync(DaemonClients + 1);
  bool WindowOver = false;   // Written between barrier phases.
  Clock::time_point SliceEnd;
  uint32_t Slice = 0;
  std::atomic<uint64_t> NextFresh{0};
  std::atomic<double> FreshRssMb{0.0};
  auto Client = [&](unsigned Index) {
    ClientLog &Log = Logs[Index];
    fuzz::Rng Mix(fuzz::programSeed(S.Seed, ~uint64_t(0) - Index));
    uint64_t N = 0;
    for (;;) {
      Sync.arrive_and_wait();
      if (WindowOver)
        return;
      while (Clock::now() < SliceEnd) {
        const bool Fresh = Mix.chance(FreshPercent);
        server::Request FreshReq;
        uint64_t FreshIndex = 0;
        size_t Kernel = 0;
        if (Fresh) {
          FreshIndex = NextFresh.fetch_add(1);
          FreshReq = freshRequest(S.Seed, FreshIndex);
        } else {
          Kernel = Mix.below(KernelReqs.size());
        }
        const server::Request &Req = Fresh ? FreshReq : KernelReqs[Kernel];
        const bool Traced = S.Trace && N % 2 == 1;
        const uint64_t Op = (uint64_t(Index) << 40) | N++;
        server::Response Resp;
        std::string Error;
        auto T0 = Clock::now();
        bool Ok = false;
        if (Traced) {
          ScopedSpan Root(&Log.T, "request", Op, 0);
          Ok = requestOnce(Daemon.socket(), Req, Resp, Error, &Log.T, Op,
                           Root.id(), Fresh ? "server.cold" : "server.hot");
        } else {
          Ok = requestOnce(Daemon.socket(), Req, Resp, Error, nullptr, 0, 0,
                           "");
        }
        Log.Samples.push_back({millisSince(T0), Slice, Fresh, Traced});
        ++Log.Attempted;
        if (!Ok)
          Log.Failures.push_back("transport: " + Error);
        else if (Resp.Exit == server::BusyExit)
          Log.Failures.push_back("shed: " + Resp.Err);
        else if (Fresh) {
          if (FreshIndex == RssAtFresh)
            FreshRssMb.store(Daemon.peakRssMb());
          Log.Fresh.push_back({FreshIndex, std::move(Resp)}); // Checked below.
        } else if (!sameResponse(Resp, KernelResps[Kernel]))
          Log.Failures.push_back("response for " + Req.Args.back() +
                                 " differs from direct tcc");
        else
          ++Log.Completed;
      }
      Sync.arrive_and_wait();
    }
  };
  // Traced runs sample the daemon's queue depth through -ping health.
  std::atomic<bool> StopPinger{false};
  double QueueDepthMax = 0.0;
  auto Pinger = [&] {
    while (!StopPinger.load()) {
      std::string Health;
      if (ping(Daemon.socket(), ClientTimeoutMs, Health))
        QueueDepthMax =
            std::max(QueueDepthMax, healthField(Health, "queueDepth"));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < DaemonClients; ++I)
      Threads.emplace_back(Client, I);
    std::thread PingThread;
    if (S.Trace)
      PingThread = std::thread(Pinger);
    M.Speed = HostSpeed(DaemonClients);
    M.Speed.calibrate();
    for (double Left = S.Seconds; Left > 0;) {
      auto Start = Clock::now();
      SliceEnd = Start + seconds(std::min(SliceSeconds, Left));
      Slice = M.SliceSeconds.size();
      Sync.arrive_and_wait(); // Clients run the slice...
      Sync.arrive_and_wait(); // ...and are all back.
      M.SliceSeconds.push_back(millisSince(Start) / 1e3);
      Left -= M.SliceSeconds.back();
      M.Speed.calibrate();
    }
    WindowOver = true;
    Sync.arrive_and_wait();
    for (std::thread &T : Threads)
      T.join();
    StopPinger.store(true);
    if (PingThread.joinable())
      PingThread.join();
  }

  if (!ping(Daemon.socket(), ClientTimeoutMs, After))
    R.fail("ping after the window failed");
  M.PeakRssMb = FreshRssMb.load() > 0 ? FreshRssMb.load() : Daemon.peakRssMb();
  Daemon.stop();

  // Fresh responses are held to a direct runToolInvocation of the same
  // program, computed once the window has closed.
  std::vector<const std::pair<uint64_t, server::Response> *> Fresh;
  for (ClientLog &Log : Logs) {
    R.Attempted += Log.Attempted;
    M.Completed += Log.Completed;
    for (const std::string &F : Log.Failures)
      R.fail(F);
    for (const auto &P : Log.Fresh)
      Fresh.push_back(&P);
    M.Samples.insert(M.Samples.end(), Log.Samples.begin(), Log.Samples.end());
    M.Tracers.push_back(&Log.T);
  }
  std::mutex FailMutex;
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Verified{0};
  auto Verifier = [&] {
    for (size_t I = Next.fetch_add(1); I < Fresh.size();
         I = Next.fetch_add(1)) {
      server::Response Want;
      std::string Error;
      server::Request Req = freshRequest(S.Seed, Fresh[I]->first);
      if (directResponse(Req, Want, Error) &&
          sameResponse(Want, Fresh[I]->second)) {
        ++Verified;
        continue;
      }
      std::lock_guard<std::mutex> Lock(FailMutex);
      R.fail("response for " + Req.Args.back() + " differs from direct tcc" +
             (Error.empty() ? "" : ": " + Error));
    }
  };
  {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < DaemonClients; ++I)
      Threads.emplace_back(Verifier);
    for (std::thread &T : Threads)
      T.join();
  }
  M.Completed += Verified.load();

  double Hits = healthField(After, "hotHits") - healthField(Before, "hotHits");
  double Misses =
      healthField(After, "hotMisses") - healthField(Before, "hotMisses");
  M.HotHitRatio = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  M.HotEvictions = healthField(After, "hotEvictions") -
                   healthField(Before, "hotEvictions");
  M.Shed = healthField(After, "shed") - healthField(Before, "shed");
  M.QueueDepthMax = QueueDepthMax;
  M.FnCacheHitsPerOp = R.Attempted ? Hits / R.Attempted : 0.0;
  finish(S, M, R);
  return R;
}

} // namespace

WorkloadResult perfbench::runWorkload(const RunSettings &S) {
  if (S.Workload == "kernels")
    return runKernels(S);
  if (S.Workload == "fuzz")
    return runFuzz(S);
  return runDaemon(S);
}
