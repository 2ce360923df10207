//===- lslpbench/HostSpeed.cpp - Host speed probe -------------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

#include "Stats.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sys/mman.h>
#include <unistd.h>

using namespace lslpbench;

namespace {

/// A small table (4 KiB) so that re-warming it after a large op costs
/// little against the probe's own time.
constexpr unsigned ProbeTableSize = 1024;
constexpr unsigned ProbeSteps = 30000;
constexpr unsigned ProbeMapInserts = 1000;
constexpr unsigned ProbeMappings = 2, ProbeMappingPages = 4;

uint32_t ProbeTable[ProbeTableSize];
volatile uint64_t ProbeSink;

} // namespace

double lslpbench::probeMs() {
  // Three parts, each a kind of work the measured ops do: a dependent
  // multiply chain with table loads, stores and a branch the predictor
  // cannot learn; a node-based map built and torn down; and pages mapped,
  // written and remapped executable, as the jit does. On a shared 4-vCPU
  // host whose compile times drifted 20-30% over 4 minutes, compile time
  // over probe time drifted 3-5%.
  uint64_t X = 0x9e3779b97f4a7c15ULL, Acc = 0;
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I != ProbeSteps; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    uint32_t &Slot = ProbeTable[(X >> 40) % ProbeTableSize];
    if (X >> 63)
      Slot += static_cast<uint32_t>(X >> 20);
    else
      Acc += Slot;
  }
  {
    std::map<uint64_t, uint64_t> M;
    for (unsigned I = 0; I != ProbeMapInserts; ++I) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      M[X >> 20] = I;
    }
    for (const auto &[Key, Value] : M)
      Acc += Key ^ Value;
  }
  const size_t PageBytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t Bytes = ProbeMappingPages * PageBytes;
  for (unsigned I = 0; I != ProbeMappings; ++I) {
    void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      continue;
    auto *Bytes8 = static_cast<unsigned char *>(P);
    for (size_t Off = 0; Off < Bytes; Off += PageBytes)
      Bytes8[Off] = static_cast<unsigned char>(X >> 8);
    mprotect(P, Bytes, PROT_READ | PROT_EXEC);
    Acc += Bytes8[0];
    munmap(P, Bytes);
  }
  const double Ms = msSince(Start);
  ProbeSink = Acc;
  return Ms;
}

void HostSpeed::maybeProbe() {
  if (!Probes.empty() && msSince(Probes.back().At) < MinGapMs)
    return;
  Clock::time_point Start = Clock::now();
  const double Ms = probeMs();
  record(Start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(Ms / 2)),
         Ms);
}

void HostSpeed::record(Clock::time_point At, double Ms) {
  Probes.push_back({At, Ms});
}

double HostSpeed::factor() const {
  std::vector<double> Ms;
  for (const Probe &P : Probes)
    Ms.push_back(P.Ms);
  return Ms.empty() ? 1.0 : ProbeReferenceMs / median(Ms);
}

double HostSpeed::factorAt(Clock::time_point At) const {
  const auto Window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(WindowMs));
  auto Less = [](const Probe &P, Clock::time_point T) { return P.At < T; };
  auto First =
      std::lower_bound(Probes.begin(), Probes.end(), At - Window, Less);
  std::vector<double> Ms;
  for (auto It = First; It != Probes.end() && It->At <= At + Window; ++It)
    Ms.push_back(It->Ms);
  return Ms.empty() ? factor() : ProbeReferenceMs / median(Ms);
}
