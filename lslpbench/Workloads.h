//===- lslpbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three closed-loop workloads (one client, one thread, the next op
/// starts when the previous one returned):
///
///   paper  Table 2 + motivation kernels, the Fig. 11/12 suites and
///          examples/ir/*.ll under SLP-NR, SLP, LSLP (greedy) and LSLP
///          (global), plus jit execution passes over the outputs.
///   scale  seeded ~2k-instruction blocks (greedy) and ~640-instruction
///          blocks (global) from ScaleGen.
///   fuzz   a fixed window of generator seeds: each seed's module compiled
///          under LSLP-cfg (greedy and global) and checked by the
///          differential oracle (runFuzzSweep with the default oracle).
///
/// See README.md in this directory for the metrics and why each workload
/// exists.
///
//===----------------------------------------------------------------------===//
#ifndef LSLPBENCH_WORKLOADS_H
#define LSLPBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

namespace lslpbench {

struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Repository root (holds src/ and examples/).
  std::string Root = ".";
};

/// True for "paper", "scale" and "fuzz".
bool isWorkloadName(const std::string &Name);

/// Runs one workload, prints the human-readable report and, as the last
/// line of stdout, the JSON result. Returns the process exit code: 0 when
/// every output checked out, 1 on any mismatch.
int runWorkload(const BenchOptions &Opts);

} // namespace lslpbench

#endif // LSLPBENCH_WORKLOADS_H
