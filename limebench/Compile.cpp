//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `compile` workload: the offload service's cache-miss path, from
/// Lime source to a built device program, for every paper filter x
/// Figure 8 memory config x {gtx8800, gtx580, hd5970} (216 kernels).
/// One op is one kernel: parse + sema, oracle-guided GpuCompiler run,
/// the admission verifier exactly as OffloadService configures it, and
/// the per-device program build (OpenCL re-parse, bytecode, JIT). No
/// kernel runs. Each round visits all 216 kernels in a seeded order.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/AnalysisOracle.h"
#include "analysis/Verification.h"
#include "lime/parser/Parser.h"
#include "lime/sema/Sema.h"
#include "ocl/BytecodeCompiler.h"
#include "ocl/CL.h"
#include "ocl/DeviceModel.h"
#include "ocl/Jit.h"
#include "ocl/OclParser.h"
#include "runtime/Offload.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <random>

using namespace lime;

namespace limebench {

namespace {

const char *const Devices[] = {"gtx8800", "gtx580", "hd5970"};

struct CompileOp {
  const wl::Workload *W;
  unsigned Cfg;
  const char *Device;

  std::string key() const {
    return W->Id + "/" + fig8Configs()[Cfg].Label + "/" + Device;
  }
};

struct Compiled {
  std::string Error; // "" when admitted and built
  uint64_t SourceDigest = 0;
  size_t SourceBytes = 0;
  size_t CodeBytes = 0;
  bool Admitted = false;
};

/// The verifier request OffloadService's admission gate builds.
analysis::VerifyRequest admissionRequest(const CompiledKernel &K,
                                         const std::string &Device) {
  analysis::VerifyRequest VR;
  VR.Kernel = &K;
  VR.Geometry = analysis::GeometryPolicy::Symbolic;
  VR.AssumeMode = analysis::AssumePolicy::Ignore;
  VR.Device = &ocl::deviceByName(Device);
  VR.BytecodeTier = true;
  return VR;
}

size_t codeBytesOf(const ocl::BcKernel *K) {
  return K && K->Jit ? K->Jit->CodeBytes : 0;
}

/// The cache-miss path of one kernel, under an "op" span. With tracing
/// on, the program build is made from the three public steps
/// ClContext::buildProgram performs, so each gets a span.
Compiled compileKernel(const CompileOp &Op, Tracer &T, ASTContext &Ctx,
                       CompiledKernel &K) {
  ScopedSpan OpSpan(T, "op");
  Compiled Out;
  const wl::Workload &W = *Op.W;
  DiagnosticEngine Diags;
  Program *Prog = nullptr;
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
    Out.Error = "frontend: " + Diags.dump();
    return Out;
  }
  MethodDecl *Worker = Prog->findClass(W.ClassName)->findMethod(W.FilterMethod);

  rt::OffloadConfig OC;
  OC.DeviceName = Op.Device;
  OC.Mem = fig8Configs()[Op.Cfg].Config;
  OC = rt::canonicalOffloadConfig(OC);

  {
    ScopedSpan S(T, "compiler.compile");
    K = analysis::oracleCompile(Prog, Ctx.types(), Worker, OC.Mem);
  }
  if (!K.Ok) {
    Out.Error = "compile: " + K.Error;
    return Out;
  }
  Out.SourceDigest = digestText(K.Source);
  Out.SourceBytes = K.Source.size();

  analysis::VerifyResult V;
  {
    ScopedSpan S(T, "analysis.verify");
    V = analysis::runVerification(admissionRequest(K, OC.DeviceName));
  }
  Out.Admitted = V.Admitted;
  if (!V.Admitted) {
    Out.Error = "not admitted: " + V.GateMessage;
    return Out;
  }

  ScopedSpan Build(T, "ocl.build");
  ocl::ClContext Cl(OC.DeviceName);
  if (!T.on()) {
    std::string Err = Cl.buildProgram(K.Source);
    if (!Err.empty()) {
      Out.Error = "build: " + Err;
      return Out;
    }
    Out.CodeBytes = codeBytesOf(Cl.findKernel(K.Plan.KernelName));
    return Out;
  }
  ocl::OclContext OCtx;
  DiagnosticEngine BD;
  ocl::OclProgramAST *AST = nullptr;
  {
    ScopedSpan S(T, "ocl.parse");
    ocl::OclParser P(K.Source, OCtx, BD);
    AST = P.parseProgram();
  }
  ocl::BcProgram BP;
  if (!BD.hasErrors()) {
    ScopedSpan S(T, "ocl.bytecode");
    ocl::BytecodeCompiler BC(OCtx, BD);
    BP = BC.compile(AST);
  }
  if (BD.hasErrors()) {
    Out.Error = "build: " + BD.dump();
    return Out;
  }
  {
    ScopedSpan S(T, "jit.compile");
    ocl::attachJitArtifacts(BP, Cl.model());
  }
  Out.CodeBytes = codeBytesOf(BP.findKernel(K.Plan.KernelName));
  return Out;
}

/// One op and, when tracing, the analysis.verify_ast_ms probe: the
/// same admission request with the bytecode tier off, run outside op
/// time on the kernel the op produced. \p Ms receives the op's time.
Compiled compileOne(const CompileOp &Op, Tracer &T, double &Ms) {
  ASTContext Ctx; // outlives the probe: the kernel plan points into it
  CompiledKernel K;
  Clock::time_point T0 = Clock::now();
  Compiled Out = compileKernel(Op, T, Ctx, K);
  Ms = msSince(T0);
  if (T.on() && Out.Error.empty()) {
    analysis::VerifyRequest VR = admissionRequest(K, Op.Device);
    VR.BytecodeTier = false;
    ScopedSpan S(T, "analysis.verify_ast");
    analysis::runVerification(VR);
  }
  return Out;
}

std::vector<CompileOp> makeOps() {
  std::vector<CompileOp> Ops;
  for (const wl::Workload &W : wl::workloadRegistry())
    for (unsigned C = 0; C != fig8Configs().size(); ++C)
      for (const char *D : Devices)
        Ops.push_back({&W, C, D});
  return Ops;
}

} // namespace

void runCompile(const Options &O, Report &R) {
  // Set-up: the op list plus one warm-up op, so lazy one-time
  // initialization (device tables, JIT helper table, code buffers)
  // is paid before timing. Repeated; main.cpp reports the median.
  std::vector<CompileOp> Ops;
  for (int Rep = 0; Rep != SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Ops = makeOps();
    Tracer Off;
    double Ms = 0.0;
    Compiled Warm = compileOne(Ops.front(), Off, Ms);
    if (!Warm.Error.empty())
      R.fail(Ops.front().key() + ": " + Warm.Error);
    R.SetupS.push_back(msSince(T0) / 1000.0);
  }

  R.PercentilesPerKey = true;
  std::mt19937_64 Rng(O.Seed);
  std::map<std::string, std::string> Seen; // key -> "digest:codebytes"
  uint64_t Admitted = 0, Built = 0, SrcBytes = 0, CodeBytes = 0;
  uint64_t OpId = 0;
  ocl::resetJitStats();
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0;; ++Round) {
    bool Traced = O.Trace && Round % 2 == 1;
    R.Trace.setOn(Traced);
    std::shuffle(Ops.begin(), Ops.end(), Rng);
    Clock::time_point RoundStart = Clock::now();
    for (const CompileOp &Op : Ops) {
      R.Trace.setOp(++OpId);
      ++R.Attempted;
      double Ms = 0.0;
      Compiled C = compileOne(Op, R.Trace, Ms);
      Admitted += C.Admitted;
      if (!C.Error.empty()) {
        R.fail(Op.key() + ": " + C.Error);
        continue;
      }
      ++Built;
      SrcBytes += C.SourceBytes;
      CodeBytes += C.CodeBytes;
      // Compiler determinism: the same kernel must come out with the
      // same OpenCL text and the same amount of native code every time.
      std::string Sig = std::to_string(C.SourceDigest) + ":" +
                        std::to_string(C.CodeBytes);
      auto [It, New] = Seen.emplace(Op.key(), Sig);
      if (!New && It->second != Sig) {
        R.fail(Op.key() + ": output differs between rounds (" + It->second +
               " vs " + Sig + ")");
        continue;
      }
      R.Ops.push_back({Op.key(), Ms, Traced,
                       {std::string("filter/") + Op.W->Id,
                        std::string("config/") + fig8Configs()[Op.Cfg].Label,
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

  RepeatStore Store(O);
  std::string Diff = Store.check(Seen);
  if (!Diff.empty())
    R.fail("exact repeat: " + Diff);
  Store.save(Seen);

  double NBuilt = Built ? static_cast<double>(Built) : 1.0;
  R.Layer["analysis.admitted_ratio"] = {
      static_cast<double>(Admitted) / static_cast<double>(R.Attempted),
      "ratio"};
  R.Layer["compiler.ocl_bytes"] = {SrcBytes / NBuilt, "bytes"};
  R.Layer["jit.code_bytes"] = {CodeBytes / NBuilt, "bytes"};
  R.Info.push_back({"kernels_per_round", std::to_string(Ops.size())});
  R.Info.push_back({"threads_used", "1"});
}

} // namespace limebench
