//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// limebench: runs one workload for a given time and prints its
/// metrics. Usage:
///
///   limebench --workload compile|offload|service --seed N --seconds S
///             --trace 0|1 [--state-dir DIR]
///
/// Human-readable lines come first; the last line is one JSON object
/// with `correct`, `attempted`, `failed` and `metrics`. With --trace 0
/// the metrics are the end-to-end ones (host wall clock, tracing off);
/// with --trace 1 they are the per-layer ones, from rounds that
/// alternate untraced and traced so the tracing overhead is measured
/// in the same run. Exits 1 when any output check fails.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace limebench;

namespace {

/// The per-layer metrics every traced run prints (BENCHMARK.json's
/// per_layer list). Times are self time per traced op; layers a
/// workload does not reach read 0.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"lime.parse_ms", "ms"},
    {"lime.sema_ms", "ms"},
    {"lime.interp_ms", "ms"},
    {"workloads.prepare_ms", "ms"},
    {"compiler.compile_ms", "ms"},
    {"compiler.ocl_bytes", "bytes"},
    {"analysis.verify_ms", "ms"},
    {"analysis.verify_ast_ms", "ms"},
    {"analysis.admitted_ratio", "ratio"},
    {"ocl.build_ms", "ms"},
    {"ocl.parse_ms", "ms"},
    {"ocl.bytecode_ms", "ms"},
    {"ocl.dispatch_ms", "ms"},
    {"jit.compile_ms", "ms"},
    {"jit.code_bytes", "bytes"},
    {"jit.jitted_dispatch_ratio", "ratio"},
    {"jit.deopts", "count"},
    {"jit.bc_proven_ratio", "ratio"},
    {"runtime.invoke_ms", "ms"},
    {"runtime.serialize_ms", "ms"},
    {"runtime.deserialize_ms", "ms"},
    {"runtime.wire_mb", "MB"},
    {"service.submit_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"service.launches", "count"},
    {"service.batched_ratio", "ratio"},
    {"service.coalesced", "count"},
    {"service.rejected", "count"},
    {"service.retried", "count"},
    {"service.fell_back", "count"},
    {"device.sim_e2e_ms", "sim_ms"},
    {"device.sim_kernel_ms", "sim_ms"},
    {"device.sim_marshal_ms", "sim_ms"},
    {"device.sim_api_ms", "sim_ms"},
    {"device.sim_pcie_ms", "sim_ms"},
    {"trace.untraced_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

std::vector<double> opTimes(const Report &R, bool Traced) {
  std::vector<double> Ms;
  for (const OpRecord &Op : R.Ops)
    if (Op.Traced == Traced)
      Ms.push_back(Op.Ms);
  return Ms;
}

/// Each op's median time over the rounds (PercentilesPerKey workloads).
std::map<std::string, double> keyMedians(const Report &R, bool Traced) {
  std::map<std::string, std::vector<double>> ByKey;
  for (const OpRecord &Op : R.Ops)
    if (Op.Traced == Traced)
      ByKey[Op.Key].push_back(Op.Ms);
  std::map<std::string, double> Medians;
  for (const auto &[Key, Ms] : ByKey)
    Medians[Key] = quantile(Ms, 0.5);
  return Medians;
}

/// The sample the latency percentiles are taken over: every untraced
/// op, or with PercentilesPerKey each op's median over the rounds.
std::vector<double> latencySample(const Report &R) {
  if (!R.PercentilesPerKey)
    return opTimes(R, false);
  std::vector<double> Medians;
  for (const auto &[Key, Ms] : keyMedians(R, false))
    Medians.push_back(Ms);
  return Medians;
}

/// Mean op time traced and untraced. With PercentilesPerKey, sums of
/// per-op medians over the ops both sides ran, so one cold round does
/// not read as tracing overhead.
std::pair<double, double> tracedVsUntraced(const Report &R) {
  if (!R.PercentilesPerKey)
    return {mean(opTimes(R, true)), mean(opTimes(R, false))};
  std::map<std::string, double> T = keyMedians(R, true),
                                U = keyMedians(R, false);
  double ST = 0.0, SU = 0.0;
  for (const auto &[Key, Ms] : T)
    if (auto It = U.find(Key); It != U.end()) {
      ST += Ms;
      SU += It->second;
    }
  return {ST, SU};
}

/// Folds the spans into per-layer self times (ms per traced op) and
/// prints the accounting: layer self times plus the untraced remainder
/// add up to the mean traced op time.
void foldSpans(Report &R) {
  const auto &Spans = R.Trace.spans();
  std::vector<double> ChildMs(Spans.size(), 0.0);
  std::vector<int> Root(Spans.size(), -1);
  for (size_t I = 0; I != Spans.size(); ++I) {
    int P = Spans[I].Parent;
    Root[I] = P < 0 ? static_cast<int>(I) : Root[static_cast<size_t>(P)];
    if (P >= 0)
      ChildMs[static_cast<size_t>(P)] += Spans[I].EndMs - Spans[I].StartMs;
  }
  std::map<std::string, double> SelfMs, ProbeMs;
  double OpMs = 0.0;
  uint64_t NOps = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Tracer::Span &S = Spans[I];
    double Dur = S.EndMs - S.StartMs;
    bool InOp = std::strcmp(Spans[static_cast<size_t>(Root[I])].Name, "op") == 0;
    if (!InOp) {
      if (S.Parent < 0)
        ProbeMs[S.Name] += Dur;
      continue;
    }
    if (S.Parent < 0) {
      OpMs += Dur;
      ++NOps;
    }
    SelfMs[S.Name] += Dur - ChildMs[I];
  }
  if (!NOps)
    return;
  double N = static_cast<double>(NOps);
  std::printf("layer accounting over %llu traced ops (ms per op, self "
              "time):\n",
              static_cast<unsigned long long>(NOps));
  double Sum = 0.0;
  for (const auto &[Name, Ms] : SelfMs) {
    std::string Key = Name == "op" ? "trace.untraced_ms" : Name + "_ms";
    R.Layer[Key] = {Ms / N, "ms"};
    Sum += Ms / N;
    std::printf("  %-26s %12.4f  %5.1f%%\n", Key.c_str(), Ms / N,
                100.0 * Ms / OpMs);
  }
  std::printf("  %-26s %12.4f  (mean traced op)\n", "sum", Sum);
  for (const auto &[Name, Ms] : ProbeMs) {
    R.Layer[std::string(Name) + "_ms"] = {Ms / N, "ms"};
    std::printf("  probe %-20s %12.4f  (outside op time)\n",
                (Name + "_ms").c_str(), Ms / N);
  }
}

void printRows(const Report &R) {
  std::map<std::string, std::vector<double>> Rows;
  for (const OpRecord &Op : R.Ops)
    if (!Op.Traced)
      for (const std::string &Row : Op.Rows)
        Rows[Row].push_back(Op.Ms);
  if (Rows.empty())
    return;
  std::printf("%-28s %6s %12s %12s\n", "row", "ops", "p50_ms", "p90_ms");
  double LogSum = 0.0;
  unsigned NFilters = 0;
  for (const auto &[Row, Ms] : Rows) {
    double P50 = quantile(Ms, 0.5);
    std::printf("%-28s %6zu %12.4f %12.4f\n", Row.c_str(), Ms.size(), P50,
                quantile(Ms, 0.9));
    if (Row.rfind("filter/", 0) == 0 && P50 > 0) {
      LogSum += std::log(P50);
      ++NFilters;
    }
  }
  if (NFilters)
    std::printf("geomean of filter p50s: %.4f ms over %u filters\n",
                std::exp(LogSum / NFilters), NFilters);
}

void printJsonMetric(bool &First, const std::string &Name, const Metric &M) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
  First = false;
}

int usage() {
  std::fprintf(stderr,
               "usage: limebench --workload compile|offload|service --seed N "
               "--seconds S --trace 0|1 [--state-dir DIR]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--state-dir")
      O.StateDir = V;
    else
      return usage();
  }
  if (Argc % 2 == 0 || O.Seconds <= 0)
    return usage();

  Report R;
  if (O.Workload == "compile")
    runCompile(O, R);
  else if (O.Workload == "offload")
    runOffload(O, R);
  else if (O.Workload == "service")
    runService(O, R);
  else
    return usage();

  unsigned Nproc = std::thread::hardware_concurrency();
  std::printf("workload %s seed %llu seconds %g trace %d nproc %u\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, Nproc);
  for (const auto &[K, V] : R.Info)
    std::printf("%s %s\n", K.c_str(), V.c_str());
  printRows(R);

  std::vector<double> Untraced = opTimes(R, false);
  std::vector<double> Latency = latencySample(R);
  std::map<std::string, Metric> EndToEnd;
  EndToEnd["setup_s"] = {quantile(R.SetupS, 0.5), "s"};
  EndToEnd["ops_per_s"] = {
      !R.RoundOpsPerS.empty() ? quantile(R.RoundOpsPerS, 0.5)
      : R.UntracedSeconds > 0 ? static_cast<double>(R.UntracedCompleted) /
                                    R.UntracedSeconds
                              : 0.0,
      "1/s"};
  EndToEnd["op_p50_ms"] = {quantile(Latency, 0.5), "ms"};
  EndToEnd["op_p90_ms"] = {quantile(Latency, 0.9), "ms"};
  EndToEnd["peak_rss_mb"] = {R.PeakRssMb, "MB"};

  size_t N = Untraced.size();
  std::string Over = R.PercentilesPerKey
                         ? " over per-op medians of " +
                               std::to_string(Latency.size()) + " ops"
                         : "";
  std::printf("setup_s %.6f s (median of %zu set-ups)\n",
              EndToEnd["setup_s"].Value, R.SetupS.size());
  std::printf("ops_per_s %.4f 1/s (%llu ops in %.3f s%s)\n",
              EndToEnd["ops_per_s"].Value,
              static_cast<unsigned long long>(R.UntracedCompleted),
              R.UntracedSeconds,
              R.RoundOpsPerS.empty()
                  ? ""
                  : (", median of " + std::to_string(R.RoundOpsPerS.size()) +
                     " rounds")
                        .c_str());
  std::printf("op_p50_ms %.4f ms (n=%zu%s)\n", EndToEnd["op_p50_ms"].Value, N,
              Over.c_str());
  std::printf("op_p90_ms %.4f ms (n=%zu%s)\n", EndToEnd["op_p90_ms"].Value, N,
              Over.c_str());
  if (N >= 1000)
    std::printf("op_p99_ms %.4f ms (n=%zu%s)\n", quantile(Latency, 0.99), N,
                Over.c_str());
  else
    std::printf("op_p99_ms not reported: %zu ops < 1000\n", N);
  std::printf("failed_ratio %.6f (%llu of %llu)\n",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::printf("peak_rss_mb %.3f MB\n", R.PeakRssMb);
  if (auto It = R.Layer.find("device.sim_e2e_ms"); It != R.Layer.end())
    std::printf("sim_e2e_ms %.6f sim_ms (simulated, per op)\n",
                It->second.Value);
  for (const std::string &F : R.Failures)
    std::printf("FAILED: %s\n", F.c_str());

  std::map<std::string, Metric> Out;
  if (O.Trace) {
    foldSpans(R);
    auto [T, U] = tracedVsUntraced(R);
    R.Layer["trace.overhead_pct"] = {U > 0 ? 100.0 * (T - U) / U : 0.0, "%"};
    std::printf("tracing overhead %.3f%% (%zu traced ops, %zu untraced)\n",
                R.Layer["trace.overhead_pct"].Value, opTimes(R, true).size(),
                Untraced.size());
    for (const auto &[Name, Unit] : LayerMetrics) {
      auto It = R.Layer.find(Name);
      Out[Name] = It != R.Layer.end() ? It->second : Metric{0.0, Unit};
      std::printf("%-28s %14.6f %s\n", Name, Out[Name].Value, Unit);
    }
  } else {
    for (const auto &[Name, M] : R.Layer)
      std::printf("%-28s %14.6f %s\n", Name.c_str(), M.Value, M.Unit.c_str());
    Out = EndToEnd;
  }

  bool Correct = R.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(R.Attempted, 1)),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, M] : Out)
    printJsonMetric(First, Name, M);
  std::printf("}}\n");
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
