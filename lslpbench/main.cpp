//===- lslpbench/main.cpp - Benchmark command line ------------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// lslpbench --workload paper|scale|fuzz --seed N --seconds S --trace 0|1
//           [--root DIR]
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace lslpbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "lslpbench: %s\nusage: lslpbench --workload paper|scale|fuzz "
               "--seed N --seconds S --trace 0|1 [--root DIR]\n",
               Msg);
  return 2;
}

bool parseNumber(const std::string &S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S.c_str(), &End);
  return !S.empty() && End && *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = argv[++I];
    double Num = 0;
    if (Flag == "--workload") {
      Opts.Workload = Value;
    } else if (Flag == "--root") {
      Opts.Root = Value;
    } else if (Flag == "--seed") {
      if (!parseNumber(Value, Num) || Num < 0)
        return usage("bad --seed");
      Opts.Seed = static_cast<uint64_t>(Num);
    } else if (Flag == "--seconds") {
      if (!parseNumber(Value, Num) || Num <= 0 || Num > 3600)
        return usage("bad --seconds");
      Opts.Seconds = Num;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("bad --trace");
      Opts.Trace = Value == "1";
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!isWorkloadName(Opts.Workload))
    return usage("unknown or missing --workload");
  return runWorkload(Opts);
}
