//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the limebench driver: options, the span tracer,
/// the per-run report every workload fills, and the value digests the
/// output checks compare.
///
/// The tracer records spans from the benchmark's own code around each
/// call into a limecc layer; nothing inside the program is
/// instrumented. Spans stay in memory and are folded into per-layer
/// self times when the run ends. It is single-threaded by design: only
/// the thread that drives the workload records spans.
///
//===----------------------------------------------------------------------===//

#ifndef LIMEBENCH_BENCH_H
#define LIMEBENCH_BENCH_H

#include "compiler/KernelPlan.h"
#include "lime/interp/Value.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace limebench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where reference outputs and repeat digests persist between runs.
  std::string StateDir = ".bench_build/limebench-state";
};

/// How often each workload repeats its set-up; setup_s is the median.
/// Set-up takes milliseconds, so a few repeats cannot outvote noise.
constexpr int SetupRepeats = 15;

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// In-memory span recorder. A span's parent is the innermost span open
/// when it began; a span begun outside any op is a *probe*: an extra
/// measurement made for the layer report, excluded from op time.
class Tracer {
public:
  struct Span {
    const char *Name;
    double StartMs;
    double EndMs;
    int Parent; // index into spans(), -1 for roots
    uint64_t Op;
  };

  bool on() const { return On; }
  void setOn(bool V) { On = V; }

  /// Opens a span; returns its index, or -1 while tracing is off.
  int begin(const char *Name) {
    if (!On)
      return -1;
    Spans.push_back({Name, nowMs(), 0.0,
                     Stack.empty() ? -1 : Stack.back(), CurOp});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }
  void end(int Idx) {
    if (Idx < 0)
      return;
    Spans[static_cast<size_t>(Idx)].EndMs = nowMs();
    Stack.pop_back();
  }
  /// Records a child of the innermost open span whose duration the
  /// layer measured itself (e.g. a wall-clock counter delta). It is
  /// placed at the parent's start so self-time arithmetic holds.
  void addMeasured(const char *Name, double Ms) {
    if (!On || Stack.empty())
      return;
    double S = Spans[static_cast<size_t>(Stack.back())].StartMs;
    Spans.push_back({Name, S, S + Ms, Stack.back(), CurOp});
  }
  /// Records a finished span whose ends were observed elsewhere:
  /// requests in flight together overlap, so they cannot nest on the
  /// stack. A parent must be recorded before its children.
  int record(const char *Name, Clock::time_point Start, Clock::time_point End,
             int Parent = -1) {
    if (!On)
      return -1;
    Spans.push_back({Name, at(Start), at(End), Parent, CurOp});
    return static_cast<int>(Spans.size()) - 1;
  }
  void setOp(uint64_t Op) { CurOp = Op; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  double at(Clock::time_point T) const {
    return std::chrono::duration<double, std::milli>(T - Epoch).count();
  }
  double nowMs() const { return at(Clock::now()); }

  bool On = false;
  uint64_t CurOp = 0;
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name) : T(T), Idx(T.begin(Name)) {}
  ~ScopedSpan() { T.end(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Idx;
};

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// One op's outcome as the workload records it.
struct OpRecord {
  std::string Key; // which op of the workload's fixed op set, if any
  double Ms = 0.0;
  bool Traced = false;
  /// Row labels this op contributes to ("filter/cp", "config/Local").
  std::vector<std::string> Rows;
};

/// Everything one run reports. Workloads fill it; main.cpp derives the
/// end-to-end metrics and prints it.
struct Report {
  std::vector<double> SetupS; // one entry per set-up repetition
  std::vector<OpRecord> Ops;  // every measured op, traced or not
  /// Rounds repeat one fixed op set: latency percentiles are taken over
  /// each op's median across rounds, so they do not shift with the
  /// number of rounds a run happens to complete.
  bool PercentilesPerKey = false;
  /// Wall time of the untraced measurement, for ops_per_s.
  double UntracedSeconds = 0.0;
  uint64_t UntracedCompleted = 0;
  /// Ops per second of each untraced round, for workloads that run in
  /// rounds; ops_per_s is then their median, which a slow round (a
  /// neighbour's burst, a cold first pass) does not move.
  std::vector<double> RoundOpsPerS;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; // first few messages
  double PeakRssMb = 0.0;
  /// Per-layer counts and ratios the workload computes itself; layer
  /// times come from the tracer.
  std::map<std::string, Metric> Layer;
  /// "key value" lines describing the run (threads, window, ...).
  std::vector<std::pair<std::string, std::string>> Info;
  Tracer Trace;

  void fail(const std::string &Why, uint64_t Count = 1) {
    Failed += Count;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  }
};

/// 64-bit FNV-1a over a value's kinds, shape and exact scalar bits.
uint64_t digestValue(const lime::RtValue &V);
/// 64-bit FNV-1a over \p Text.
uint64_t digestText(const std::string &Text);
/// Scalars of \p V in row-major order, widened to double.
void flattenNumbers(const lime::RtValue &V, std::vector<double> &Out);
/// The element-wise tolerance `limec --verify` applies.
bool closeEnough(double Ref, double Got);

double peakRssMb();

/// 64-bit FNV-1a over this program's own executable, as 16 hex digits.
/// State kept between runs is keyed by it, so a rebuild from changed
/// sources never compares with a different program's outputs.
std::string codeTag();

/// Folds ocl::jitStatsSnapshot() into the jit.* layer metrics. Each
/// workload calls it when its measured window ends, before its output
/// checks dispatch kernels of their own.
void foldJitStats(Report &R);

/// Per-workload entry points (one translation unit each).
void runCompile(const Options &O, Report &R);
void runOffload(const Options &O, Report &R);
void runService(const Options &O, Report &R);

/// The eight memory configurations of Figure 8, with their labels.
struct NamedConfig {
  const char *Label;
  lime::MemoryConfig Config;
};
const std::vector<NamedConfig> &fig8Configs();

/// Paper filters' simulation scales (fraction of Table 3 size): large
/// enough for stable shapes, small enough to run in tens of ms. Kept
/// here rather than shared with bench/ so the benchmark's inputs only
/// change when the benchmark does.
double baseScale(const std::string &Id);

/// Exact-repeat store: "key value" pairs remembered per (workload,
/// seed, codeTag()) across runs. check() returns "" or the first
/// disagreement with what an earlier run recorded; save() merges and
/// writes.
class RepeatStore {
public:
  RepeatStore(const Options &O);
  std::string check(const std::map<std::string, std::string> &Now) const;
  void save(const std::map<std::string, std::string> &Now) const;

private:
  std::string Path;
  std::map<std::string, std::string> Before;
};

} // namespace limebench

#endif // LIMEBENCH_BENCH_H
