//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ocl/Jit.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lime;

namespace limebench {

namespace {

constexpr uint64_t FnvOffset = 14695981039346656037ull;

void mixByte(uint64_t &H, unsigned char C) {
  H ^= C;
  H *= 1099511628211ull;
}

void mix(uint64_t &H, uint64_t V) {
  for (int B = 0; B != 8; ++B)
    mixByte(H, static_cast<unsigned char>(V >> (8 * B)));
}

void digestInto(const RtValue &V, uint64_t &H) {
  mix(H, static_cast<uint64_t>(V.kind()));
  if (V.isArray()) {
    const auto &Elems = V.array()->Elems;
    mix(H, Elems.size());
    for (const RtValue &E : Elems)
      digestInto(E, H);
    return;
  }
  if (V.isInteger()) {
    mix(H, static_cast<uint64_t>(V.asIntegral()));
  } else if (V.isFloating()) {
    double D = V.rawFloating();
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof Bits);
    mix(H, Bits);
  }
}

} // namespace

uint64_t digestValue(const RtValue &V) {
  uint64_t H = FnvOffset;
  digestInto(V, H);
  return H;
}

uint64_t digestText(const std::string &Text) {
  uint64_t H = FnvOffset;
  for (unsigned char C : Text)
    mixByte(H, C);
  return H;
}

void flattenNumbers(const RtValue &V, std::vector<double> &Out) {
  if (V.isArray()) {
    for (const RtValue &E : V.array()->Elems)
      flattenNumbers(E, Out);
    return;
  }
  if (V.isNumeric())
    Out.push_back(V.asNumber());
}

bool closeEnough(double Ref, double Got) {
  return std::fabs(Ref - Got) <= 1e-3 * (1.0 + std::fabs(Ref));
}

std::string codeTag() {
  static const std::string Tag = [] {
    uint64_t H = FnvOffset;
    std::ifstream In("/proc/self/exe", std::ios::binary);
    std::vector<char> Buf(1 << 16);
    for (;;) {
      In.read(Buf.data(), static_cast<std::streamsize>(Buf.size()));
      std::streamsize N = In.gcount();
      if (N <= 0)
        break;
      for (std::streamsize I = 0; I != N; ++I)
        mixByte(H, static_cast<unsigned char>(Buf[static_cast<size_t>(I)]));
    }
    char Hex[17];
    std::snprintf(Hex, sizeof Hex, "%016llx",
                  static_cast<unsigned long long>(H));
    return std::string(Hex);
  }();
  return Tag;
}

void foldJitStats(Report &R) {
  uint64_t Jit = 0, Interp = 0, Proven = 0, Total = 0, Deopts = 0;
  for (const ocl::JitKernelStats &S : ocl::jitStatsSnapshot()) {
    Jit += S.JitDispatches;
    Interp += S.InterpDispatches;
    Proven += S.BcMemOpsProven;
    Total += S.BcMemOpsTotal;
    Deopts += !S.DeoptReason.empty();
  }
  auto Ratio = [](uint64_t A, uint64_t B) {
    return B ? static_cast<double>(A) / static_cast<double>(B) : 0.0;
  };
  R.Layer["jit.jitted_dispatch_ratio"] = {Ratio(Jit, Jit + Interp), "ratio"};
  R.Layer["jit.deopts"] = {static_cast<double>(Deopts), "count"};
  R.Layer["jit.bc_proven_ratio"] = {Ratio(Proven, Total), "ratio"};
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double baseScale(const std::string &Id) {
  if (Id == "nbody_sp" || Id == "nbody_dp")
    return 0.2;
  if (Id == "mosaic")
    return 0.30;
  if (Id == "cp")
    return 0.04;
  if (Id == "mriq")
    return 0.05;
  if (Id == "rpes")
    return 0.008;
  return 0.02; // crypt, series_sp, series_dp
}

const std::vector<NamedConfig> &fig8Configs() {
  static const std::vector<NamedConfig> Configs = {
      {"Global", MemoryConfig::global()},
      {"Global+Vector", MemoryConfig::globalVector()},
      {"Local", MemoryConfig::local()},
      {"Local+Conf.rm", MemoryConfig::localNoConflict()},
      {"Local+CR+Vec", MemoryConfig::localNoConflictVector()},
      {"Constant", MemoryConfig::constant()},
      {"Constant+Vec", MemoryConfig::constantVector()},
      {"Texture", MemoryConfig::texture()},
  };
  return Configs;
}

RepeatStore::RepeatStore(const Options &O)
    : Path(O.StateDir + "/repeat-" + O.Workload + "-" +
           std::to_string(O.Seed) + "-" + codeTag() + ".txt") {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Sp = Line.find(' ');
    if (Sp != std::string::npos)
      Before[Line.substr(0, Sp)] = Line.substr(Sp + 1);
  }
}

std::string
RepeatStore::check(const std::map<std::string, std::string> &Now) const {
  for (const auto &[Key, Val] : Now) {
    auto It = Before.find(Key);
    if (It != Before.end() && It->second != Val)
      return Key + ": this run " + Val + ", an earlier run with the same "
             "seed " + It->second;
  }
  return "";
}

void RepeatStore::save(const std::map<std::string, std::string> &Now) const {
  std::map<std::string, std::string> All = Before;
  for (const auto &[Key, Val] : Now)
    All[Key] = Val;
  std::error_code EC;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), EC);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp);
    for (const auto &[Key, Val] : All)
      Out << Key << ' ' << Val << '\n';
  }
  std::filesystem::rename(Tmp, Path, EC);
}

} // namespace limebench
