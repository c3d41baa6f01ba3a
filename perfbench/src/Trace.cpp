#include "Trace.h"

#include <algorithm>
#include <map>
#include <thread>

using namespace perfbench;

namespace {

/// Allocation, hashing and ordered-map work, the mix a compiler's own
/// data structures make, plus the fresh zeroed 4 MiB memory image every
/// simulator run allocates.  Fixed work; only its speed varies.
double calibrationLoopMs() {
  auto Start = Clock::now();
  std::map<std::string, uint64_t> M;
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t I = 0; I < 24000; ++I) {
    H = (H ^ I) * 0x100000001b3ull;
    M[std::to_string(H % 5000)] += I;
    if (I % 3 == 0)
      M.erase(std::to_string((H >> 7) % 5000));
  }
  size_t Touched = 0;
  for (int I = 0; I < 4; ++I) {
    std::vector<uint8_t> Image(4u << 20);
    Touched += Image[(H >> I) % Image.size()];
  }
  volatile size_t Sink = M.size() + Touched;
  (void)Sink;
  return millisSince(Start);
}

double median(std::vector<double> V) {
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}

} // namespace

void HostSpeed::calibrate() {
  // The faster of two passes on each thread: a preemption inside one
  // pass is not a change in the host's speed.
  auto Pass = [] { return std::min(calibrationLoopMs(), calibrationLoopMs()); };
  if (Threads == 1) {
    SampleMs.push_back(Pass());
    return;
  }
  std::vector<double> Ms(Threads);
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back([&Ms, &Pass, I] { Ms[I] = Pass(); });
  for (std::thread &T : Pool)
    T.join();
  SampleMs.push_back(median(Ms));
}

double HostSpeed::factor(size_t I) const {
  if (SampleMs.empty())
    return 1.0;
  // The median of the samples around the slice follows the host's drift
  // and ignores a single disturbed sample.
  size_t Lo = I >= 2 ? I - 2 : 0;
  size_t Hi = std::min(I + 4, SampleMs.size());
  Lo = std::min(Lo, Hi - 1);
  return NominalMs / median({SampleMs.begin() + Lo, SampleMs.begin() + Hi});
}

double HostSpeed::medianFactor() const {
  return SampleMs.empty() ? 1.0 : NominalMs / median(SampleMs);
}

double perfbench::millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

uint32_t Tracer::begin(const char *Name, uint64_t Op, uint32_t Parent) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Parent;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.StartNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - Epoch)
                  .count();
  Spans.push_back(S);
  return S.Id;
}

void Tracer::end(uint32_t Id) {
  Spans[Id - 1].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - Epoch)
                            .count();
}

std::map<std::string, LayerTime>
perfbench::aggregateSpans(const std::vector<const Tracer *> &Tracers) {
  std::map<std::string, LayerTime> Out;
  for (const Tracer *T : Tracers) {
    const std::vector<Span> &Spans = T->spans();
    // Children of one span run one after another on the recording
    // thread, so the time they cover is the sum of their durations.
    std::vector<int64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent)
        ChildNs[S.Parent - 1] += S.EndNs - S.StartNs;
    for (size_t I = 0; I < Spans.size(); ++I) {
      LayerTime &L = Out[Spans[I].Name];
      int64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
      L.InclusiveMs += Dur / 1e6;
      L.SelfMs += (Dur - ChildNs[I]) / 1e6;
      ++L.Count;
    }
  }
  return Out;
}

void perfbench::writeSpans(std::ostream &OS, const std::string &HeaderLine,
                           const std::vector<const Tracer *> &Tracers) {
  OS << HeaderLine << "\n";
  for (size_t Thread = 0; Thread < Tracers.size(); ++Thread)
    for (const Span &S : Tracers[Thread]->spans())
      OS << "{\"thread\":" << Thread << ",\"op\":" << S.Op
         << ",\"id\":" << S.Id << ",\"parent\":" << S.Parent
         << ",\"name\":\"" << S.Name << "\",\"start_ns\":" << S.StartNs
         << ",\"dur_ns\":" << (S.EndNs - S.StartNs) << "}\n";
}
