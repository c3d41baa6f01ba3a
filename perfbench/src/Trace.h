//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recording for the traced benchmark run.
///
/// A span is one timed interval at a layer boundary: its name, the
/// operation it belongs to (one kernel compile+run, one fuzz program, or
/// one daemon request), and the span that caused it.  Spans stay in
/// memory while the run measures and are written out when it ends.  A
/// layer's self time is its span's duration minus the time its child
/// spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start);

struct Span {
  const char *Name = ""; ///< A string literal: the layer.
  uint64_t Op = 0;       ///< Operation id, shared by every span of one op.
  uint32_t Id = 0;       ///< 1-based index in the recording tracer.
  uint32_t Parent = 0;   ///< 0 for an operation's root span.
  int64_t StartNs = 0;   ///< Since the tracer's epoch.
  int64_t EndNs = 0;
};

/// One thread's span recorder.  Not synchronized: every recording thread
/// owns its own tracer.
class Tracer {
public:
  explicit Tracer(Clock::time_point Epoch = Clock::now()) : Epoch(Epoch) {}

  uint32_t begin(const char *Name, uint64_t Op, uint32_t Parent);
  void end(uint32_t Id);

  const std::vector<Span> &spans() const { return Spans; }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction.  A null
/// tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint64_t Op, uint32_t Parent)
      : T(T), Id(T ? T->begin(Name, Op, Parent) : 0) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint32_t id() const { return Id; }

private:
  Tracer *T;
  uint32_t Id;
};

/// Per-layer totals over a set of spans, in milliseconds.
struct LayerTime {
  double InclusiveMs = 0.0;
  double SelfMs = 0.0;
  uint64_t Count = 0;
};

/// Sums inclusive and self time per span name.
std::map<std::string, LayerTime>
aggregateSpans(const std::vector<const Tracer *> &Tracers);

/// Writes every span as one JSON line (after \p HeaderLine) to \p OS.
void writeSpans(std::ostream &OS, const std::string &HeaderLine,
                const std::vector<const Tracer *> &Tracers);

/// Host-speed normalization.  On a shared host the CPU's speed drifts by
/// around ten percent from one run to the next, with neighbours' load,
/// and a wall-clock time drifts with it.  A run therefore measures in
/// slices and times a fixed calibration loop between them; a time taken
/// in a slice is scaled by NominalMs over the median calibration time
/// around that slice.  The benchmark's end-to-end times are reported at
/// that nominal host speed, and the report also prints them raw.
class HostSpeed {
public:
  /// What the calibration loop takes on the nominal host.
  static constexpr double NominalMs = 9.0;

  /// \p Threads is how many cores the measured work keeps busy; the loop
  /// runs on that many threads at once.
  explicit HostSpeed(unsigned Threads = 1) : Threads(Threads) {}

  /// Times the calibration loop and keeps the sample.
  void calibrate();

  /// The scale factor for work done after sample \p I and before sample
  /// I + 1 (or after the last sample).
  double factor(size_t I) const;

  /// The median factor over the samples: the run's host speed.
  double medianFactor() const;

private:
  unsigned Threads;
  std::vector<double> SampleMs;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
