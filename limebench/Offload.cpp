//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `offload` workload: whole offloaded pipeline runs, each one
/// `wl::runWorkload(W, RunMode::Offloaded, baseScale(W))` on gtx580
/// (Fermi, cached memory model) or hd5970 (no caches). A round runs
/// all 9 paper workloads on both devices in a seeded order. Host-side
/// execution dominates: input generation, the Lime interpreter's
/// source and sink tasks, marshaling, and the device dispatch (JIT
/// plus memory-model pricing). No admission verifier runs.
///
/// Traced rounds replay runWorkload step by step through the same
/// public calls (Parser, Sema, Workload::Prepare, TaskGraphRuntime with
/// a pipeline hook that owns the OffloadedFilter) so each layer gets a
/// span; every traced op must reproduce the untraced op's simulated
/// times and output bits exactly.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "lime/parser/Parser.h"
#include "lime/sema/Sema.h"
#include "ocl/Jit.h"
#include "runtime/TaskGraph.h"
#include "workloads/Driver.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

using namespace lime;

namespace limebench {

namespace {

const char *const Devices[] = {"gtx580", "hd5970"};

struct OffloadOp {
  const wl::Workload *W;
  const char *Device;
  std::string key() const { return W->Id + "/" + Device; }
};

/// One filter invocation a traced op made, kept for the wire probes.
struct Invocation {
  MethodDecl *Worker;
  std::vector<RtValue> Args;
  RtValue Result;
};

/// Wire-format probes on one traced op's own arguments and results:
/// serialize then decode each, outside op time. Returns bytes written.
uint64_t probeWire(const std::vector<Invocation> &Calls, Tracer &T) {
  uint64_t Bytes = 0;
  rt::WireFormat Wire;
  auto RoundTrip = [&](const RtValue &V, const Type *Ty) {
    rt::MarshalCost C;
    std::vector<uint8_t> B;
    {
      ScopedSpan S(T, "runtime.serialize");
      B = Wire.serialize(V, C);
    }
    {
      ScopedSpan S(T, "runtime.deserialize");
      Wire.deserializeChecked(B, Ty, C);
    }
    Bytes += B.size();
  };
  for (const Invocation &Call : Calls) {
    for (size_t I = 0; I != Call.Args.size(); ++I)
      RoundTrip(Call.Args[I], Call.Worker->params()[I]->type());
    RoundTrip(Call.Result, Call.Worker->returnType());
  }
  return Bytes;
}

/// runWorkload(W, Offloaded, Scale, Base) replayed with spans under one
/// "op" span, whose wall time lands in \p OpMs. The wire probes run
/// after it, while the program that types their values is still alive.
wl::RunOutcome runTraced(const wl::Workload &W, const rt::OffloadConfig &Base,
                         double Scale, Tracer &T, double &OpMs,
                         uint64_t &WireBytes) {
  wl::RunOutcome Out;
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Program *Prog = nullptr;
  std::vector<Invocation> Calls;
  std::shared_ptr<ocl::ClContext> Shared;
  std::map<MethodDecl *, std::unique_ptr<rt::OffloadedFilter>> Filters;
  std::unique_ptr<Interp> I;
  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan Op(T, "op");
    {
      ScopedSpan S(T, "lime.parse");
      Parser P(W.LimeSource, Ctx, Diags);
      Prog = P.parseProgram();
    }
    if (!Diags.hasErrors()) {
      ScopedSpan S(T, "lime.sema");
      Sema Sm(Ctx, Diags);
      Sm.check(Prog);
    }
    if (Diags.hasErrors()) {
      Out.Error = Diags.dump();
      return Out;
    }
    I = std::make_unique<Interp>(Prog, Ctx.types());
    {
      ScopedSpan S(T, "workloads.prepare");
      W.Prepare(*I, Scale);
    }
    JavaCostModel Cost;
    Cost.LimeBytecodeMode = true;
    I->setCostModel(Cost);
    I->costs().reset();

    rt::PipelineConfig PC;
    PC.OffloadFilters = true;
    PC.Offload = Base;
    PC.Offload.Assumes.insert(PC.Offload.Assumes.end(),
                              W.DefaultAssumes.begin(), W.DefaultAssumes.end());
    Shared = std::make_shared<ocl::ClContext>(PC.Offload.DeviceName);
    PC.ServiceInvoke = [&](MethodDecl *Worker,
                           const std::vector<RtValue> &Args, ExecResult &R) {
      auto It = Filters.find(Worker);
      if (It == Filters.end()) {
        ScopedSpan S(T, "compiler.compile");
        It = Filters
                 .emplace(Worker, std::make_unique<rt::OffloadedFilter>(
                                      Prog, Ctx.types(), Worker, PC.Offload,
                                      Shared))
                 .first;
      }
      rt::OffloadedFilter &F = *It->second;
      if (!F.ok())
        return false; // stays on the host, as the direct path decides
      if (!F.prepared()) {
        ScopedSpan S(T, "ocl.build");
        F.prepare(Args);
      }
      {
        ScopedSpan S(T, "runtime.invoke");
        double D0 = F.context().profile().WallDispatchMs;
        R = F.invoke(Args);
        T.addMeasured("ocl.dispatch",
                      F.context().profile().WallDispatchMs - D0);
      }
      Calls.push_back({Worker, Args, R.Value});
      return true;
    };
    rt::TaskGraphRuntime RT(*I, PC);
    ExecResult R;
    {
      ScopedSpan S(T, "lime.interp");
      R = I->callStatic(W.ClassName, W.RunMethod, {});
    }
    if (!R.ok()) {
      Out.Error = R.TrapMessage;
      return Out;
    }
    Out.HostNs = I->simTimeNs();
    for (const auto &[Worker, F] : Filters) {
      if (!F->ok())
        continue;
      const rt::OffloadStats &D = F->stats();
      Out.Device.Marshal += D.Marshal;
      Out.Device.ApiNs += D.ApiNs;
      Out.Device.PcieNs += D.PcieNs;
      Out.Device.KernelNs += D.KernelNs;
      Out.Device.Invocations += D.Invocations;
    }
    Out.EndToEndNs = Out.HostNs + Out.Device.totalNs();
    Out.Result = wl::getStatic(*I, W.ClassName, W.ResultField);
    {
      // runWorkload recompiles the filter for its report; so does this.
      ScopedSpan S(T, "compiler.compile");
      GpuCompiler GC(Prog, Ctx.types());
      GC.compile(Prog->findClass(W.ClassName)->findMethod(W.FilterMethod),
                 Base.Mem);
    }
  }
  OpMs = msSince(T0);
  WireBytes += probeWire(Calls, T);
  return Out;
}

std::string simSignature(const wl::RunOutcome &Out) {
  char Buf[256];
  std::snprintf(Buf, sizeof Buf, "e2e=%.17g,kern=%.17g,mar=%.17g,api=%.17g,"
                "pcie=%.17g,out=%016llx",
                Out.EndToEndNs, Out.Device.KernelNs,
                Out.Device.Marshal.JavaNs + Out.Device.Marshal.NativeNs,
                Out.Device.ApiNs, Out.Device.PcieNs,
                static_cast<unsigned long long>(digestValue(Out.Result)));
  return Buf;
}

/// The interpreter's (RunMode::LimeBytecode) output for \p W. It does
/// not depend on the seed or device, and costs seconds per workload,
/// so the first run computes it and later runs read it back. The file
/// is tagged with the program's code digest (input generation and the
/// interpreter are part of the program) and the workload's scale.
std::vector<double> reference(const Options &O, const wl::Workload &W) {
  uint64_t H = digestText(codeTag() + "@" + std::to_string(baseScale(W.Id)));
  std::string Path = O.StateDir + "/ref-" + W.Id + ".bin";
  std::vector<double> Values;
  {
    std::ifstream In(Path, std::ios::binary);
    uint64_t Tag = 0, N = 0;
    if (In.read(reinterpret_cast<char *>(&Tag), sizeof Tag) && Tag == H &&
        In.read(reinterpret_cast<char *>(&N), sizeof N)) {
      Values.resize(N);
      if (In.read(reinterpret_cast<char *>(Values.data()),
                  static_cast<std::streamsize>(N * sizeof(double))))
        return Values;
    }
  }
  Values.clear();
  wl::RunOutcome Ref =
      wl::runWorkload(W, wl::RunMode::LimeBytecode, baseScale(W.Id));
  if (!Ref.ok())
    return Values;
  flattenNumbers(Ref.Result, Values);
  std::error_code EC;
  std::filesystem::create_directories(O.StateDir, EC);
  std::ofstream Out(Path + ".tmp", std::ios::binary);
  uint64_t N = Values.size();
  Out.write(reinterpret_cast<const char *>(&H), sizeof H);
  Out.write(reinterpret_cast<const char *>(&N), sizeof N);
  Out.write(reinterpret_cast<const char *>(Values.data()),
            static_cast<std::streamsize>(N * sizeof(double)));
  Out.close();
  std::filesystem::rename(Path + ".tmp", Path, EC);
  return Values;
}

std::vector<OffloadOp> makeOps() {
  std::vector<OffloadOp> Ops;
  for (const wl::Workload &W : wl::workloadRegistry())
    for (const char *D : Devices)
      Ops.push_back({&W, D});
  return Ops;
}

} // namespace

void runOffload(const Options &O, Report &R) {
  // Set-up: the op list plus a warm-up run of the smallest pipeline,
  // so one-time initialization is paid before timing.
  std::vector<OffloadOp> Ops;
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Ops = makeOps();
    rt::OffloadConfig OC;
    const wl::Workload &Warm = wl::workloadById("series_sp");
    if (!wl::runWorkload(Warm, wl::RunMode::Offloaded, baseScale(Warm.Id), OC)
             .ok())
      R.fail("warm-up run failed");
    R.SetupS.push_back(msSince(T0) / 1000.0);
  }

  R.PercentilesPerKey = true;
  std::mt19937_64 Rng(O.Seed);
  std::map<std::string, std::string> Seen;   // key -> sim signature
  std::map<std::string, RtValue> FirstResult; // key -> output
  double SimE2e = 0, SimKernel = 0, SimMarshal = 0, SimApi = 0, SimPcie = 0;
  uint64_t Completed = 0, TracedOps = 0, WireBytes = 0, OpId = 0;
  ocl::resetJitStats();
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0;; ++Round) {
    bool Traced = O.Trace && Round % 2 == 1;
    R.Trace.setOn(Traced);
    std::shuffle(Ops.begin(), Ops.end(), Rng);
    Clock::time_point RoundStart = Clock::now();
    for (const OffloadOp &Op : Ops) {
      R.Trace.setOp(++OpId);
      ++R.Attempted;
      rt::OffloadConfig OC;
      OC.DeviceName = Op.Device;
      double Scale = baseScale(Op.W->Id);
      double Ms = 0.0;
      wl::RunOutcome Out;
      if (Traced) {
        Out = runTraced(*Op.W, OC, Scale, R.Trace, Ms, WireBytes);
        ++TracedOps;
      } else {
        Clock::time_point T0 = Clock::now();
        Out = wl::runWorkload(*Op.W, wl::RunMode::Offloaded, Scale, OC);
        Ms = msSince(T0);
      }
      if (!Out.ok()) {
        R.fail(Op.key() + ": " + Out.Error);
        continue;
      }
      std::string Sig = simSignature(Out);
      auto [It, New] = Seen.emplace(Op.key(), Sig);
      if (New)
        FirstResult[Op.key()] = Out.Result;
      else if (It->second != Sig) {
        R.fail(Op.key() + ": not an exact repeat (" + It->second + " vs " +
               Sig + ")");
        continue;
      }
      ++Completed;
      SimE2e += Out.EndToEndNs;
      SimKernel += Out.Device.KernelNs;
      SimMarshal += Out.Device.Marshal.JavaNs + Out.Device.Marshal.NativeNs;
      SimApi += Out.Device.ApiNs;
      SimPcie += Out.Device.PcieNs;
      R.Ops.push_back({Op.key(), Ms, Traced,
                       {"filter/" + Op.W->Id,
                        std::string("device/") + Op.Device}});
    }
    R.Info.push_back({"round_s", std::to_string(msSince(RoundStart) / 1000.0) +
                                     (Traced ? " (traced)" : "")});
    if (!Traced) {
      double Seconds = msSince(RoundStart) / 1000.0;
      R.UntracedSeconds += Seconds;
      R.UntracedCompleted += Ops.size();
      R.RoundOpsPerS.push_back(static_cast<double>(Ops.size()) / Seconds);
    }
    if (Round >= 1 && msSince(Start) >= O.Seconds * 1000.0)
      break;
  }
  R.PeakRssMb = peakRssMb();
  foldJitStats(R);

  // Output check: every pipeline's output agrees with the Lime
  // interpreter within limec --verify's tolerance. Results repeat
  // exactly (checked above), so the first one per op stands for all.
  for (const auto &[Key, Result] : FirstResult) {
    const wl::Workload &W = wl::workloadById(Key.substr(0, Key.find('/')));
    std::vector<double> Ref = reference(O, W), Got;
    flattenNumbers(Result, Got);
    bool Same = !Ref.empty() && Ref.size() == Got.size();
    for (size_t I = 0; Same && I != Ref.size(); ++I)
      Same = closeEnough(Ref[I], Got[I]);
    if (!Same)
      R.fail(Key + ": output differs from the interpreter's (" +
             std::to_string(Got.size()) + " vs " + std::to_string(Ref.size()) +
             " values)");
  }

  RepeatStore Store(O);
  std::string Diff = Store.check(Seen);
  if (!Diff.empty())
    R.fail("exact repeat: " + Diff);
  Store.save(Seen);

  double N = Completed ? static_cast<double>(Completed) : 1.0;
  R.Layer["device.sim_e2e_ms"] = {SimE2e / N / 1e6, "sim_ms"};
  R.Layer["device.sim_kernel_ms"] = {SimKernel / N / 1e6, "sim_ms"};
  R.Layer["device.sim_marshal_ms"] = {SimMarshal / N / 1e6, "sim_ms"};
  R.Layer["device.sim_api_ms"] = {SimApi / N / 1e6, "sim_ms"};
  R.Layer["device.sim_pcie_ms"] = {SimPcie / N / 1e6, "sim_ms"};
  if (TracedOps)
    R.Layer["runtime.wire_mb"] = {
        static_cast<double>(WireBytes) / static_cast<double>(TracedOps) / 1e6,
        "MB"};
  R.Info.push_back({"pipelines_per_round", std::to_string(Ops.size())});
  R.Info.push_back({"threads_used", "1"});
}

} // namespace limebench
