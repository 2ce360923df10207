//===- lslpbench/Workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// One run = set-up (repeated; its median is setup_s), a measured loop of
// whole cycles until --seconds have passed, and the correctness gates.
// A cycle is every op of the workload once, in a seeded shuffled order so
// host drift hits all items alike:
//
//   compile  one (item, config) text-to-text compile (Pipeline.h)
//   oracle   one fuzz seed through runFuzzSweep (fuzz only)
//   exec     one pass running every compiled output on fresh jit engines
//            (from cycle 1 on, spread evenly through the cycle)
//
// Untraced, a host speed probe (HostSpeed.h) runs between ops at most every
// ProbeGapMs; each timed sample of cycle 1 on is scaled by the median of the
// probes within ProbeWindowMs of it, and the gated times are medians of the
// scaled samples.
//
// With --trace 1 the cycles alternate untraced/traced; the per-layer
// numbers come from the traced cycles, the overhead from comparing both.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "HostSpeed.h"
#include "Pipeline.h"
#include "ScaleGen.h"
#include "Stats.h"
#include "Trace.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/DependenceGraph.h"
#include "costmodel/TargetTransformInfo.h"
#include "diag/Statistics.h"
#include "fuzz/FuzzDriver.h"
#include "fuzz/ModuleGenerator.h"
#include "ir/BasicBlock.h"
#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "jit/ExecMemory.h"
#include "jit/JITCompiler.h"
#include "jit/JITEngine.h"
#include "kernels/Kernels.h"
#include "parser/Parser.h"
#include "support/OStream.h"
#include "support/RNG.h"
#include "vectorizer/Scheduler.h"
#include "vectorizer/SeedCollector.h"
#include "vm/BytecodeCompiler.h"
#include "vm/ExecutionEngine.h"
#include "vm/MemoryInit.h"
#include "vm/VMEngine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <vector>

#ifndef LSLPBENCH_BUILD_TYPE
#define LSLPBENCH_BUILD_TYPE "unknown"
#endif

using namespace lslp;
using namespace lslpbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

/// One function call an exec pass makes. Every argument is an i64.
struct ExecEntry {
  std::string Function;
  std::vector<uint64_t> Args;
};

/// One input of a workload.
struct Item {
  std::string Name;
  std::string Text; ///< Scalar module.
  std::vector<ExecEntry> Entries;
  MemoryInitStyle Init = MemoryInitStyle::KernelRanges;
  uint64_t InitSeed = 0x1234abcd;
  std::vector<CompileJob> Jobs;
  /// Accepted bundles every compile must report (0 = not checked).
  unsigned ExpectedAccepted = 0;
  /// Generator seed the oracle checks (fuzz items only).
  int64_t FuzzSeed = -1;
};

struct Workload {
  std::vector<Item> Items;
  unsigned ExecPassesPerCycle = 1;
  /// Calls of each entry per module in an exec pass: raises the executed
  /// trip count so that running, not engine compile, is most of the pass.
  /// The kernels' trip count n cannot grow without leaving their arrays.
  unsigned ExecCalls = 4;
  /// Times each compile op runs per cycle.
  unsigned CompileRepeat = 1;
  /// Percentile compile_ms_tail prefers (see Stats.h for the fallback).
  double TailPercentile = 99;
  /// Cycles a run measures at least, whatever --seconds says, so that
  /// every median and tail has the samples it needs.
  unsigned MinCycles = 2;
};

/// The scale workload's blocks: greedy blocks of ~1k instructions and
/// global blocks of ~320 (global packing costs several times greedy per
/// instruction). Compile time is quadratic in block size; ~1k keeps each
/// compile near 0.1 s, so that a 30 s run repeats every block ~15 times
/// (2k blocks gave 7 repetitions and 14-22% run-to-run spread). Blocks of
/// one size and seed differ by up to 25% in compile time, so the median
/// over eight of each keeps the choice of seed from moving it much.
constexpr unsigned ScaleGreedyBlocks = 8, ScaleGreedyInsts = 1024;
constexpr unsigned ScaleGlobalBlocks = 8, ScaleGlobalInsts = 320;
/// The fuzz workload's fixed seed window [1, FuzzWindow].
constexpr unsigned FuzzWindow = 16;
/// Set-up repeats at least SetupMinReps times and for SetupMinSeconds;
/// setup_s is the median.
constexpr unsigned SetupMinReps = 5, SetupMaxReps = 200;
constexpr double SetupMinSeconds = 0.5;
/// Least time between two host speed probes in the measured loop: a
/// ~0.5 ms probe every 8 ms costs ~6% of the loop. A sample is scaled by
/// the ~120 probes within half a second of it: far shorter than the host's
/// phases, long enough for a steady median.
constexpr double ProbeGapMs = 8, ProbeWindowMs = 500;

VectorizerConfig globalOf(VectorizerConfig C) {
  C.Strategy = VectorizerConfig::PackingStrategyKind::Global;
  C.Name += "-global";
  return C;
}

std::string printToString(const Module &M, Tracer *T) {
  TraceScope S(T, "ir.print");
  std::string Out;
  StringOStream OS(Out);
  printModule(OS, M);
  return Out;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<CompileJob> paperJobs() {
  std::vector<CompileJob> Jobs;
  for (VectorizerConfig C :
       {VectorizerConfig::slpNoReordering(), VectorizerConfig::slp(),
        VectorizerConfig::lslp(8), globalOf(VectorizerConfig::lslp(8))})
    Jobs.push_back({C, false});
  return Jobs;
}

bool buildPaper(const std::string &Root, Tracer *T, Workload &W,
                std::string &Err) {
  W.ExecPassesPerCycle = 1;
  // 72 greedy compiles per cycle: 14 cycles give the 1000 samples p99
  // with ten beyond it needs.
  W.TailPercentile = 99;
  W.MinCycles = 14;
  for (const KernelSpec *K : getFigureKernels()) {
    TraceScope S(T, "kernels.build");
    Context Ctx;
    std::unique_ptr<Module> M = buildKernelModule(*K, Ctx);
    W.Items.push_back({K->Name, printToString(*M, T),
                       {{K->EntryFunction, {K->DefaultN}}},
                       MemoryInitStyle::KernelRanges, 0x1234abcd, paperJobs(),
                       0, -1});
  }
  for (const SuiteSpec &Suite : getSuites()) {
    TraceScope S(T, "kernels.build");
    Context Ctx;
    std::unique_ptr<Module> M = buildSuiteModule(Suite, Ctx);
    Item It{"suite:" + Suite.Name, printToString(*M, T), {},
            MemoryInitStyle::KernelRanges, 0x1234abcd, paperJobs(), 0, -1};
    for (const std::string &Member : Suite.Members) {
      const KernelSpec *K = findKernel(Member);
      It.Entries.push_back({K->EntryFunction, {K->DefaultN}});
    }
    W.Items.push_back(std::move(It));
  }
  // examples/ir/*.ll, every defined function called with all-1 arguments.
  std::vector<std::string> Paths;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(
           std::filesystem::path(Root) / "examples" / "ir", EC))
    if (E.path().extension() == ".ll")
      Paths.push_back(E.path().string());
  if (EC || Paths.empty()) {
    Err = "no examples/ir/*.ll under " + Root;
    return false;
  }
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &P : Paths) {
    Item It{"example:" + std::filesystem::path(P).filename().string(), "", {},
            MemoryInitStyle::KernelRanges, 0x1234abcd, paperJobs(), 0, -1};
    if (!readFile(P, It.Text)) {
      Err = "cannot read " + P;
      return false;
    }
    Context Ctx;
    std::unique_ptr<Module> M = parseModule(It.Text, Ctx, Err);
    if (!M)
      return false;
    for (const auto &F : M->functions())
      It.Entries.push_back(
          {F->getName(), std::vector<uint64_t>(F->getNumArgs(), 1)});
    W.Items.push_back(std::move(It));
  }
  return true;
}

bool buildScale(uint64_t Seed, Tracer *T, bool Print, Workload &W,
                std::string &Err) {
  W.ExecPassesPerCycle = 4;
  // A block runs in ~0.5 us but takes the jit ~0.5 ms to compile; with 4
  // calls the pass timed mostly the jit's compile into fresh code pages,
  // which the host's slow phases slowed about twice as much as the probe.
  W.ExecCalls = 4096;
  // 8 greedy compiles per cycle: 3 cycles give the 20 samples a median
  // with ten beyond it needs.
  W.TailPercentile = 50;
  W.MinCycles = 3;
  for (unsigned B = 0; B != ScaleGreedyBlocks + ScaleGlobalBlocks; ++B) {
    const bool Global = B >= ScaleGreedyBlocks;
    ScaleOptions O;
    O.Seed = Seed * 1000003 + B;
    O.Instructions = Global ? ScaleGlobalInsts : ScaleGreedyInsts;
    ScaleBlock Block;
    {
      TraceScope S(T, "scale.generate");
      if (!generateScaleBlock(O, Block, Err))
        return false;
    }
    if (Print)
      std::printf("scale block %u: seed=%" PRIu64 " instructions=%u "
                  "groups=%u strategy=%s\n",
                  B, Block.Seed, Block.Instructions, Block.Groups,
                  Global ? "global" : "greedy");
    VectorizerConfig C = VectorizerConfig::lslp(8);
    W.Items.push_back({"scale:" + std::to_string(Block.Seed), Block.Text,
                       {{Block.Function, {}}}, MemoryInitStyle::KernelRanges,
                       0x1234abcd,
                       {{Global ? globalOf(C) : C, false}},
                       Block.Groups, -1});
  }
  return true;
}

bool buildFuzz(Tracer *T, Workload &W, std::string &Err) {
  W.ExecPassesPerCycle = 8;
  // The oracle checks take ~90% of a cycle; repeating the 2-8 ms compiles
  // gives each of them ~30 repetitions in a 30 s run instead of ~8.
  W.CompileRepeat = 4;
  W.TailPercentile = 75;
  W.MinCycles = 3;
  VectorizerConfig Cfg = VectorizerConfig::lslp(8);
  Cfg.EnableIfConversion = true;
  Cfg.EnableLoopUnroll = true;
  Cfg.Name = "LSLP-cfg";
  for (unsigned Seed = 1; Seed <= FuzzWindow; ++Seed) {
    TraceScope S(T, "fuzz.generate");
    Context Ctx;
    ModuleGenerator Gen(Seed);
    std::unique_ptr<Module> M = Gen.generate(Ctx);
    if (!M) {
      Err = "generator failed on seed " + std::to_string(Seed);
      return false;
    }
    W.Items.push_back({"fuzz:" + std::to_string(Seed), printToString(*M, T),
                       {{"f", {}}}, MemoryInitStyle::FuzzUniform, 0x5eed,
                       {{Cfg, true}, {globalOf(Cfg), true}}, 0,
                       static_cast<int64_t>(Seed)});
  }
  return true;
}

bool buildWorkload(const BenchOptions &Opts, Tracer *T, bool Print,
                   Workload &W, std::string &Err) {
  W = Workload();
  if (Opts.Workload == "paper")
    return buildPaper(Opts.Root, T, W, Err);
  if (Opts.Workload == "scale")
    return buildScale(Opts.Seed, T, Print, W, Err);
  return buildFuzz(T, W, Err);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// A compiled output of the first cycle, run by the exec passes and the
/// gates.
struct ExecModule {
  const Item *Source = nullptr;
  std::shared_ptr<Module> M;
};

std::vector<RuntimeValue> argsFor(const Function &F, const ExecEntry &E) {
  std::vector<RuntimeValue> Args;
  for (unsigned I = 0; I != F.getNumArgs(); ++I)
    Args.push_back(RuntimeValue::makeInt(F.getArg(I)->getType(),
                                         I < E.Args.size() ? E.Args[I] : 0));
  return Args;
}

/// The bytecode VM with its per-function compile exposed, so the gate can
/// time compile and run apart.
class TimedVM : public VMEngine {
public:
  using VMEngine::VMEngine;
  void compile(const Function *F) { getOrCompile(F); }
};

struct RunOutcome {
  uint64_t Checksum = 0;
  uint64_t Cycles = 0;
  uint64_t DynamicInsts = 0;
  std::string Trap; ///< Non-empty when a call trapped or was not found.
};

/// Runs every entry of \p Src on \p E, after initializing its memory, and
/// checksums the memory image.
RunOutcome runEntries(ExecutionEngine &E, const Module &M, const Item &Src,
                      Tracer *T, const char *RunSpan) {
  {
    TraceScope S(T, "exec.engine");
    initGlobalMemory(E, M, Src.InitSeed, Src.Init);
  }
  RunOutcome R;
  for (const ExecEntry &Entry : Src.Entries) {
    const Function *F = M.getFunction(Entry.Function);
    if (!F) {
      R.Trap = "no function @" + Entry.Function;
      return R;
    }
    ExecStats St;
    {
      TraceScope S(T, RunSpan);
      St = E.run(F, argsFor(*F, Entry));
    }
    if (St.Trapped) {
      R.Trap = "@" + Entry.Function + " trapped: " + St.TrapReason;
      return R;
    }
    R.Cycles += St.TotalCost;
    R.DynamicInsts += St.DynamicInsts;
  }
  std::vector<std::string> Names;
  for (const auto &G : M.globals())
    Names.push_back(G->getName());
  TraceScope S(T, "exec.checksum");
  R.Checksum = checksumGlobals(E, M, Names);
  return R;
}

/// One exec pass: every compiled output on a fresh jit engine, each entry
/// called \p Calls times. Returns, per module, the time spent in its run()
/// calls, i.e. the engine's lazy compile plus the runs; engine
/// construction, memory initialization and teardown are spans of their own
/// ("exec.engine") but not part of the returned times. Counts calls that
/// trapped in \p Failed.
std::vector<double> execPass(const std::vector<ExecModule> &Mods,
                             unsigned Calls, const TargetTransformInfo &TTI,
                             Tracer *T, unsigned &Failed) {
  std::vector<double> RunMs(Mods.size(), 0.0);
  for (size_t M = 0; M != Mods.size(); ++M) {
    const ExecModule &EM = Mods[M];
    std::unique_ptr<ExecutionEngine> E;
    {
      TraceScope S(T, "exec.engine");
      E = ExecutionEngine::create(EngineKind::NativeJit, *EM.M, &TTI);
      initGlobalMemory(*E, *EM.M, EM.Source->InitSeed, EM.Source->Init);
    }
    for (const ExecEntry &Entry : EM.Source->Entries) {
      const Function *F = EM.M->getFunction(Entry.Function);
      if (!F) {
        ++Failed;
        continue;
      }
      std::vector<RuntimeValue> Args = argsFor(*F, Entry);
      Clock::time_point Start = Clock::now();
      {
        TraceScope S(T, "jit.run");
        for (unsigned Rep = 0; Rep != Calls; ++Rep)
          Failed += E->run(F, Args).Trapped;
      }
      RunMs[M] += msSince(Start);
    }
    TraceScope S(T, "exec.engine");
    E.reset();
  }
  return RunMs;
}

//===----------------------------------------------------------------------===//
// Traced-only probes: layer calls made from outside the pass
//===----------------------------------------------------------------------===//

struct ProbeTotals {
  double AliasNs = 0;
  uint64_t AliasPairs = 0;
};

void probeItem(const Item &It, const TargetTransformInfo &TTI, Tracer *T,
               ProbeTotals &P) {
  Context Ctx;
  std::unique_ptr<Module> M;
  {
    TraceScope S(T, "probe.input");
    std::string Err;
    M = parseModule(It.Text, Ctx, Err);
  }
  if (!M)
    return;
  for (const auto &F : M->functions()) {
    for (const auto &BBPtr : *F) {
      BasicBlock &BB = *BBPtr;
      std::vector<SeedBundle> Seeds;
      {
        TraceScope S(T, "vectorizer.seeds");
        Seeds = collectStoreSeeds(BB, TTI);
      }
      {
        TraceScope S(T, "vectorizer.sched_probe");
        BundleScheduler Sched(BB);
        for (const SeedBundle &B : Seeds)
          (void)Sched.canScheduleBundle(B);
      }
      {
        TraceScope S(T, "analysis.dg_build");
        DependenceGraph DG(BB);
        (void)DG.size();
      }
      std::vector<const Instruction *> Mem;
      for (const auto &I : BB)
        if (I->mayReadOrWriteMemory())
          Mem.push_back(I.get());
      TraceScope S(T, "analysis.alias");
      Clock::time_point Start = Clock::now();
      uint64_t Aliasing = 0;
      for (size_t A = 0; A < Mem.size(); ++A)
        for (size_t B = A + 1; B < Mem.size(); ++B)
          Aliasing += mayAlias(Mem[A], Mem[B]);
      P.AliasNs += msSince(Start) * 1e6;
      P.AliasPairs += Mem.size() * (Mem.size() - 1) / 2;
      volatile uint64_t Sink = Aliasing;
      (void)Sink;
    }
  }
}

/// The jit's compile work for one output, through the same public calls
/// JITEngine makes on first use: bytecode, native lowering, mapping.
void probeJitCompile(const ExecModule &EM, const TargetTransformInfo &TTI,
                     const jit::NativeOptions &NO, Tracer *T) {
  TraceScope S(T, "jit.compile");
  auto Layout = ExecutionEngine::computeGlobalLayout(*EM.M);
  for (const auto &F : EM.M->functions()) {
    vm::CompiledFunction CF = vm::compileFunction(*F, Layout, &TTI);
    jit::NativeFunction NF = jit::compileNative(CF, NO);
    jit::ExecMemory Mem;
    if (NF.Error.empty() && jit::jitHostSupported())
      (void)Mem.map(NF.Code);
  }
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string J = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      J += ", ";
    J += "\"" + Metrics[I].Name + "\": {\"value\": " +
         jsonNumber(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
         "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

void printHost() {
#ifdef NDEBUG
  const char *Assertions = "off";
#else
  const char *Assertions = "on";
#endif
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "assertions=%s jit=%s\n",
              std::thread::hardware_concurrency(), cpuModel().c_str(),
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "gcc " __VERSION__,
#else
              "unknown",
#endif
              LSLPBENCH_BUILD_TYPE, Assertions,
              jit::available() ? "native" : "vm-fallback");
}

/// Peak resident set of this program image: VmHWM, which starts afresh at
/// exec. ru_maxrss (the fallback) keeps the peak of the image that exec
/// replaced, so a launcher forked from a larger process would read as the
/// benchmark's own memory.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

enum class OpKind { Compile, Oracle, Exec };
struct Op {
  OpKind Kind;
  unsigned Item = 0;
  unsigned Job = 0;
};

struct Runner {
  const BenchOptions &Opts;
  Workload W;
  SkylakeTTI TTI;
  Tracer Trace;
  uint64_t Attempted = 0, NumFailed = 0;

  /// Every sample, pooled per op kind (exec: whole-pass times).
  std::vector<double> SetupS, GreedyMs, GlobalMs, ExecMs, OracleMs;
  /// Each op's samples from cycle 1 on, scaled by host speed: per (item,
  /// job) compile, per item oracle check, per output module in the exec
  /// passes.
  std::map<std::pair<unsigned, unsigned>, std::vector<double>> CompileScaled;
  std::map<unsigned, std::vector<double>> OracleScaled;
  std::vector<std::vector<double>> ExecScaled;
  /// A timed sample waiting to be scaled, and the op it belongs to.
  struct RawSample {
    std::vector<double> *Into;
    Clock::time_point Start;
    double Ms;
  };
  /// The running cycle's samples, scaled when it ends. Scaling per cycle
  /// rather than per run keeps the benchmark's own memory flat, so that
  /// peak_rss_mb does not step with the run's sample count.
  std::vector<RawSample> Pending;
  HostSpeed Speed{ProbeGapMs, ProbeWindowMs};
  /// Host speed factors: of the set-up, and the range over the samples.
  double SetupFactor = 1, MinFactor = 0, MaxFactor = 0;
  /// First-cycle compile results per (item, job): the determinism
  /// reference and the inputs of the exec passes and the gates.
  std::vector<std::vector<CompileResult>> Ref;
  std::vector<ExecModule> Outputs;
  /// Traced mode.
  std::vector<double> TracedCycleMs, UntracedCycleMs;
  std::map<std::string, double> Counters;
  unsigned TracedCycles = 0;
  ProbeTotals Probes;

  explicit Runner(const BenchOptions &Opts) : Opts(Opts) {}

  void fail(const std::string &What) {
    ++NumFailed;
    if (NumFailed <= 20)
      std::printf("FAIL: %s\n", What.c_str());
  }

  bool setup() {
    HostSpeed SetupSpeed(0, 0);
    Clock::time_point First = Clock::now();
    for (unsigned Rep = 0; Rep != SetupMaxReps; ++Rep) {
      if (Rep >= SetupMinReps && msSince(First) >= SetupMinSeconds * 1000)
        break;
      if (!Opts.Trace)
        SetupSpeed.maybeProbe();
      Clock::time_point Start = Clock::now();
      Tracer *T = Opts.Trace ? &Trace : nullptr;
      std::string Err;
      {
        TraceScope S(T, "setup");
        if (!buildWorkload(Opts, T, Rep == 0, W, Err)) {
          std::printf("setup failed: %s\n", Err.c_str());
          return false;
        }
        // The untimed warm-up op.
        CompileResult R = compileText(W.Items[0].Text, W.Items[0].Jobs[0], T);
        if (!R.Ok) {
          std::printf("warm-up compile failed: %s\n", R.Error.c_str());
          return false;
        }
      }
      SetupS.push_back(msSince(Start) / 1000.0);
    }
    SetupFactor = SetupSpeed.factor();
    Ref.assign(W.Items.size(), {});
    for (size_t I = 0; I != W.Items.size(); ++I)
      Ref[I].resize(W.Items[I].Jobs.size());
    return true;
  }

  void runCompile(unsigned ItemIdx, unsigned JobIdx, bool FirstCycle,
                  Tracer *T) {
    const Item &It = W.Items[ItemIdx];
    const CompileJob &Job = It.Jobs[JobIdx];
    const bool Global =
        Job.Config.Strategy == VectorizerConfig::PackingStrategyKind::Global;
    CompileResult R;
    Clock::time_point Start = Clock::now();
    {
      TraceScope S(T, Global ? "op.global_compile" : "op.compile");
      R = compileText(It.Text, Job, T, FirstCycle);
    }
    const double Ms = msSince(Start);
    (Global ? GlobalMs : GreedyMs).push_back(Ms);
    Pending.push_back({&CompileScaled[{ItemIdx, JobIdx}], Start, Ms});
    ++Attempted;
    const std::string What = It.Name + " [" + Job.Config.Name + "]";
    if (!R.Ok)
      return fail(What + ": " + R.Error);
    if (It.ExpectedAccepted && R.Accepted != It.ExpectedAccepted)
      return fail(What + ": accepted " + std::to_string(R.Accepted) +
                  " bundles, expected " +
                  std::to_string(It.ExpectedAccepted));
    if (FirstCycle && !Ref[ItemIdx][JobIdx].Ok) {
      Ref[ItemIdx][JobIdx] = std::move(R);
      return;
    }
    const CompileResult &First = Ref[ItemIdx][JobIdx];
    if (R.Output != First.Output || R.StaticCost != First.StaticCost)
      fail(What + ": output differs from the first cycle's");
  }

  void runOracle(unsigned ItemIdx, Tracer *T) {
    FuzzSweepOptions FO;
    FO.Count = 1;
    FO.FirstSeed = W.Items[ItemIdx].FuzzSeed;
    FO.Jobs = 1;
    int64_t Failures = 0;
    std::string Reason;
    Clock::time_point Start = Clock::now();
    {
      TraceScope S(T, "op.oracle");
      TraceScope S2(T, "fuzz.oracle");
      Failures = runFuzzSweep(FO, [&](const SeedOutcome &O) {
        if (!O.Passed)
          Reason = O.ConfigName + ": " + O.Reason;
      });
    }
    OracleMs.push_back(msSince(Start));
    Pending.push_back({&OracleScaled[ItemIdx], Start, OracleMs.back()});
    ++Attempted;
    if (Failures)
      fail(W.Items[ItemIdx].Name + " oracle: " + Reason);
  }

  void runExec(Tracer *T) {
    unsigned Bad = 0;
    TraceScope S(T, "op.exec");
    Clock::time_point Start = Clock::now();
    std::vector<double> PerModule =
        execPass(Outputs, W.ExecCalls, TTI, T, Bad);
    ExecMs.push_back(0);
    for (size_t M = 0; M != PerModule.size(); ++M) {
      ExecMs.back() += PerModule[M];
      Pending.push_back({&ExecScaled[M], Start, PerModule[M]});
    }
    ++Attempted;
    if (Bad)
      fail("exec pass: " + std::to_string(Bad) + " call(s) trapped");
  }

  /// Collects the first cycle's outputs for the exec passes and gates.
  void collectOutputs() {
    for (size_t I = 0; I != W.Items.size(); ++I)
      for (CompileResult &R : Ref[I])
        if (R.M) // Failed compiles are already counted.
          Outputs.push_back({&W.Items[I], std::move(R.M)});
    ExecScaled.assign(Outputs.size(), {});
  }

  std::vector<Op> cycleOps(unsigned Cycle) {
    std::vector<Op> Ops;
    for (unsigned I = 0; I != W.Items.size(); ++I) {
      for (unsigned J = 0; J != W.Items[I].Jobs.size(); ++J)
        for (unsigned Rep = 0; Rep != W.CompileRepeat; ++Rep)
          Ops.push_back({OpKind::Compile, I, J});
      if (W.Items[I].FuzzSeed >= 0)
        Ops.push_back({OpKind::Oracle, I, 0});
    }
    RNG Rng(Opts.Seed * 0x9e3779b97f4a7c15ULL + Cycle);
    for (size_t I = Ops.size(); I > 1; --I)
      std::swap(Ops[I - 1], Ops[Rng.nextBelow(I)]);
    if (Cycle > 0) {
      std::vector<Op> WithExec;
      const size_t E = W.ExecPassesPerCycle;
      for (size_t I = 0; I != Ops.size(); ++I) {
        WithExec.push_back(Ops[I]);
        if ((I + 1) * E / Ops.size() != I * E / Ops.size())
          WithExec.push_back({OpKind::Exec});
      }
      Ops = std::move(WithExec);
    }
    return Ops;
  }

  void runCycle(unsigned Cycle, Tracer *T) {
    for (const Op &O : cycleOps(Cycle)) {
      if (!Opts.Trace)
        Speed.maybeProbe();
      switch (O.Kind) {
      case OpKind::Compile:
        runCompile(O.Item, O.Job, Cycle == 0, T);
        break;
      case OpKind::Oracle:
        runOracle(O.Item, T);
        break;
      case OpKind::Exec:
        runExec(T);
        break;
      }
    }
    // Cycle 0 is the warm-up and reference cycle; its samples are only
    // kept raw.
    if (Cycle > 0)
      scaleSamples();
    Pending.clear();
  }

  /// Scales the running cycle's samples by the host speed around each.
  void scaleSamples() {
    for (const RawSample &S : Pending) {
      const double F = Speed.factorAt(
          S.Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(S.Ms / 2)));
      S.Into->push_back(S.Ms * F);
      MinFactor = MinFactor == 0 ? F : std::min(MinFactor, F);
      MaxFactor = std::max(MaxFactor, F);
    }
  }

  double measure() {
    Clock::time_point Start = Clock::now();
    unsigned Cycle = 0;
    auto Done = [&] {
      if (msSince(Start) < Opts.Seconds * 1000)
        return false;
      // Trace mode needs an untraced and a traced cycle after cycle 0.
      return Cycle >= W.MinCycles && (!Opts.Trace || Cycle >= 3);
    };
    while (Cycle == 0 || !Done()) {
      const bool Traced = Opts.Trace && Cycle % 2 == 1;
      Tracer *T = Traced ? &Trace : nullptr;
      if (Traced)
        StatisticsRegistry::instance().resetAll();
      Clock::time_point CycleStart = Clock::now();
      runCycle(Cycle, T);
      double CycleMs = msSince(CycleStart);
      if (Traced) {
        TracedCycleMs.push_back(CycleMs);
        checkCounters(TracedCycles++ == 0);
        runProbes(T);
      } else if (Cycle > 0) {
        UntracedCycleMs.push_back(CycleMs);
      }
      if (Cycle == 0)
        collectOutputs();
      ++Cycle;
    }
    double Seconds = msSince(Start) / 1000.0;
    std::printf("measured %u cycle(s) of %zu item(s) in %.3f s\n", Cycle,
                W.Items.size(), Seconds);
    return Cycle * W.Items.size() / Seconds;
  }

  /// Reads the registry counters of one traced cycle. Every traced cycle
  /// runs the same ops, so every counter must repeat exactly.
  void checkCounters(bool First) {
    std::map<std::string, double> Now;
    for (const Statistic *S : StatisticsRegistry::instance().all())
      Now[std::string(S->getComponent()) + "." + S->getName()] +=
          static_cast<double>(S->value());
    ++Attempted;
    if (First)
      Counters = std::move(Now);
    else if (Now != Counters)
      fail("statistics counters differ between traced cycles");
  }

  void runProbes(Tracer *T) {
    TraceScope S(T, "op.probe");
    for (const Item &It : W.Items)
      probeItem(It, TTI, T, Probes);
    jit::NativeOptions NO;
    jit::detectNaNOrder(NO);
    for (const ExecModule &EM : Outputs)
      probeJitCompile(EM, TTI, NO, T);
  }

  /// Correctness gates on the first cycle's outputs: each output's memory
  /// checksum equals its scalar input's on the interpreter, and simulated
  /// cycles and dynamic instruction counts agree on interp, vm and jit.
  void gate(uint64_t &SimCycles, uint64_t &DynInsts) {
    Tracer *T = Opts.Trace ? &Trace : nullptr;
    TraceScope Root(T, "gate");
    std::map<const Item *, RunOutcome> Scalar;
    for (const Item &It : W.Items) {
      if (It.Entries.empty())
        continue;
      Context Ctx;
      std::string Err;
      std::unique_ptr<Module> M = parseModule(It.Text, Ctx, Err);
      ++Attempted;
      if (!M) {
        fail(It.Name + ": input does not parse: " + Err);
        continue;
      }
      auto E = ExecutionEngine::create(EngineKind::TreeWalk, *M, &TTI);
      RunOutcome R = runEntries(*E, *M, It, T, "interp.run");
      if (!R.Trap.empty())
        fail(It.Name + " (scalar): " + R.Trap);
      Scalar[&It] = R;
    }
    for (const ExecModule &EM : Outputs) {
      ++Attempted;
      const std::string What = EM.Source->Name;
      auto Interp = ExecutionEngine::create(EngineKind::TreeWalk, *EM.M, &TTI);
      RunOutcome I = runEntries(*Interp, *EM.M, *EM.Source, T, "interp.run");
      if (!I.Trap.empty()) {
        fail(What + " (vectorized): " + I.Trap);
        continue;
      }
      if (I.Checksum != Scalar[EM.Source].Checksum)
        fail(What + ": vectorized output's memory differs from scalar");
      SimCycles += I.Cycles;
      DynInsts += I.DynamicInsts;

      TimedVM VM(*EM.M, &TTI);
      for (const auto &F : EM.M->functions()) {
        TraceScope S(T, "vm.compile");
        VM.compile(F.get());
      }
      RunOutcome V = runEntries(VM, *EM.M, *EM.Source, T, "vm.run");
      JITEngine Jit(*EM.M, &TTI);
      RunOutcome J = runEntries(Jit, *EM.M, *EM.Source, T, "gate.jit");
      for (const RunOutcome *O : {&V, &J})
        if (O->Cycles != I.Cycles || O->DynamicInsts != I.DynamicInsts ||
            O->Checksum != I.Checksum || !O->Trap.empty())
          fail(What + ": engines disagree with the interpreter");
    }
  }
};

} // namespace

bool lslpbench::isWorkloadName(const std::string &Name) {
  return Name == "paper" || Name == "scale" || Name == "fuzz";
}

int lslpbench::runWorkload(const BenchOptions &Opts) {
  printHost();
  Runner R(Opts);
  if (!R.setup())
    return 1;
  const double ItemsPerS = R.measure();
  uint64_t SimCycles = 0, DynInsts = 0;
  R.gate(SimCycles, DynInsts);

  int64_t StaticCost = 0;
  for (const auto &Jobs : R.Ref)
    for (const CompileResult &C : Jobs)
      StaticCost += C.StaticCost;
  const bool Correct = R.NumFailed == 0;
  std::printf("workload %s: seed=%" PRIu64 " attempted=%" PRIu64
              " failed=%" PRIu64 " error_rate=%.6g\n",
              Opts.Workload.c_str(), Opts.Seed, R.Attempted, R.NumFailed,
              R.Attempted ? double(R.NumFailed) / R.Attempted : 0.0);

  std::vector<Metric> Metrics;
  auto Report = [&](const std::string &Name, double V, const char *Unit,
                    size_t N, const std::string &Note = "") {
    std::printf("  %-28s %14.6g %-8s n=%zu%s\n", Name.c_str(), V, Unit, N,
                Note.c_str());
    Metrics.push_back({Name, V, Unit});
  };

  if (!Opts.Trace) {
    // Gated times are medians of each op's scaled samples (HostSpeed.h):
    // the host's speed drifts in phases of tens of seconds, which moves
    // every raw-sample statistic of a 30 s run by 15-25% and can hold a
    // whole run in a slow phase. A compile op counts once per cycle in
    // items_per_s, however often the workload repeats it.
    std::vector<double> GreedyP50, GlobalP50;
    double CycleMs = 0;
    for (const auto &[Op, Samples] : R.CompileScaled) {
      const auto &Job = R.W.Items[Op.first].Jobs[Op.second];
      const double Ms = median(Samples);
      (Job.Config.Strategy == VectorizerConfig::PackingStrategyKind::Global
           ? GlobalP50
           : GreedyP50)
          .push_back(Ms);
      CycleMs += Ms;
    }
    for (const auto &[Item, Samples] : R.OracleScaled)
      CycleMs += median(Samples);
    double ExecPassMs = 0;
    for (const std::vector<double> &Samples : R.ExecScaled)
      ExecPassMs += median(Samples);
    CycleMs += R.W.ExecPassesPerCycle * ExecPassMs;

    Report("setup_s", median(R.SetupS) * R.SetupFactor, "s",
           R.SetupS.size());
    Report("compile_ms_p50", median(GreedyP50), "ms", GreedyP50.size());
    Report("global_compile_ms_p50", median(GlobalP50), "ms",
           GlobalP50.size());
    Report("exec_ms", ExecPassMs, "ms", R.ExecMs.size());
    Report("items_per_s", R.W.Items.size() * 1000.0 / CycleMs, "1/s",
           R.W.Items.size());
    Report("sim_cycles", double(SimCycles), "cycles", R.Outputs.size());
    Report("static_saving", double(-StaticCost), "cost", R.Outputs.size());
    Report("peak_rss_mb", peakRssMb(), "MB", 1);

    Tail T = tailOf(R.GreedyMs, R.W.TailPercentile);
    std::printf("host speed: probe %.4g ms at reference speed; factor %.4g "
                "in set-up, %.4g-%.4g over the samples (median %.4g over "
                "all probes)\n",
                ProbeReferenceMs, R.SetupFactor, R.MinFactor, R.MaxFactor,
                R.Speed.factor());
    std::printf("raw samples (not gated, not scaled):\n"
                "  setup_s median %.6g\n"
                "  compile_ms median %.6g, tail %.6g at p%g with %zu of "
                "%zu samples beyond\n"
                "  global_compile_ms median %.6g (n=%zu), exec pass median "
                "%.6g ms (n=%zu), %.6g items/s over the measured loop\n",
                median(R.SetupS), median(R.GreedyMs), T.Value,
                T.Percentile, T.Beyond,
                T.Samples, median(R.GlobalMs), R.GlobalMs.size(),
                median(R.ExecMs), R.ExecMs.size(), ItemsPerS);
    printResult(Correct, R.Attempted, R.NumFailed, Metrics);
    return Correct ? 0 : 1;
  }

  // Traced run: per-layer self time per traced cycle (cycle layers), per
  // set-up (set-up layers) or per gate (engine layers).
  auto ByRoot = R.Trace.selfMsByRoot();
  const double Cycles = std::max(1u, R.TracedCycles);
  auto CycleLayer = [&](const std::string &Layer) {
    double Ms = 0;
    for (const char *Root : {"op.compile", "op.global_compile", "op.oracle",
                             "op.exec", "op.probe"})
      if (ByRoot.count(Root) && ByRoot[Root].count(Layer))
        Ms += ByRoot[Root][Layer];
    return Ms / Cycles;
  };
  auto RootLayer = [&](const char *Root, const std::string &Layer,
                       double Per) {
    return ByRoot.count(Root) && ByRoot[Root].count(Layer)
               ? ByRoot[Root][Layer] / Per
               : 0.0;
  };

  std::printf("per-op self time over %u traced cycle(s):\n", R.TracedCycles);
  double OpTotal = 0, OpHarness = 0;
  for (const char *Root :
       {"op.compile", "op.global_compile", "op.oracle", "op.exec"}) {
    if (!ByRoot.count(Root))
      continue;
    double Total = 0;
    for (const auto &[Layer, Ms] : ByRoot[Root])
      Total += Ms;
    OpTotal += Total;
    OpHarness += ByRoot[Root][Root];
    std::printf("  %s: %.3f ms/cycle\n", Root, Total / Cycles);
    for (const auto &[Layer, Ms] : ByRoot[Root])
      std::printf("    %-26s %10.3f ms %6.2f%%\n",
                  Layer == Root ? "(harness)" : Layer.c_str(), Ms / Cycles,
                  Total > 0 ? 100.0 * Ms / Total : 0.0);
  }

  auto Counter = [&](const std::string &Name) {
    auto It = R.Counters.find(Name);
    return It == R.Counters.end() ? 0.0 : It->second;
  };
  const double Acc = Counter("slp-vectorizer.NumGraphsAccepted");
  const double Rej = Counter("slp-vectorizer.NumGraphsRejected");
  const double Untraced = median(R.UntracedCycleMs);
  const double Traced = median(R.TracedCycleMs);
  Tail OT = tailOf(R.OracleMs, R.W.TailPercentile);
  const double Setups = double(R.SetupS.size());

  Report("parser.ms", CycleLayer("parser"), "ms", R.TracedCycles);
  Report("ir.verify_ms", CycleLayer("ir.verify"), "ms", R.TracedCycles);
  Report("ir.print_ms", CycleLayer("ir.print"), "ms", R.TracedCycles);
  Report("transforms.early_cse_ms", CycleLayer("transforms.early_cse"), "ms",
         R.TracedCycles);
  Report("transforms.if_convert_ms", CycleLayer("transforms.if_convert"),
         "ms", R.TracedCycles);
  Report("transforms.unroll_ms", CycleLayer("transforms.unroll"), "ms",
         R.TracedCycles);
  Report("vectorizer.ms", CycleLayer("vectorizer"), "ms", R.TracedCycles);
  Report("vectorizer.global_ms", CycleLayer("vectorizer.global"), "ms",
         R.TracedCycles);
  for (const char *C :
       {"early-cse.NumCSERemoved", "if-conversion.NumIfConverted",
        "loop-unroll.NumLoopsUnrolled", "seed-collector.NumSeedBundles",
        "graph-builder.NumGroupNodes", "graph-builder.NumGatherNodes",
        "graph-builder.NumMultiNodes", "operand-reordering.NumReorderedMatrices",
        "operand-reordering.NumLookAheadTieBreaks",
        "slp-vectorizer.NumGraphsAccepted", "slp-vectorizer.NumGraphsRejected",
        "slp-vectorizer.NumBudgetExhausted", "scheduler.NumSchedulerBailouts",
        "reduction-vectorizer.NumReductionsVectorized",
        "pack-set-solver.NumSolverCandidates", "global-packing.NumGlobalSolves",
        "global-packing.NumGlobalImprovements"})
    Report(C, Counter(C), "count", 1);
  Report("vectorizer.accept_ratio", Acc + Rej > 0 ? Acc / (Acc + Rej) : 0,
         "ratio", static_cast<size_t>(Acc + Rej));
  Report("vectorizer.seeds_ms", CycleLayer("vectorizer.seeds"), "ms",
         R.TracedCycles);
  Report("vectorizer.sched_probe_ms", CycleLayer("vectorizer.sched_probe"),
         "ms", R.TracedCycles);
  Report("analysis.dg_build_ms", CycleLayer("analysis.dg_build"), "ms",
         R.TracedCycles);
  Report("analysis.alias_ns",
         R.Probes.AliasPairs ? R.Probes.AliasNs / R.Probes.AliasPairs : 0,
         "ns", R.Probes.AliasPairs);
  Report("analysis.alias_pairs", double(R.Probes.AliasPairs) / Cycles,
         "count", R.TracedCycles);
  Report("jit.compile_ms", CycleLayer("jit.compile"), "ms", R.TracedCycles);
  Report("jit.run_ms", CycleLayer("jit.run"), "ms", R.TracedCycles);
  Report("exec.engine_ms", CycleLayer("exec.engine"), "ms", R.TracedCycles);
  Report("vm.compile_ms", RootLayer("gate", "vm.compile", 1), "ms", 1);
  Report("vm.run_ms", RootLayer("gate", "vm.run", 1), "ms", 1);
  Report("interp.run_ms", RootLayer("gate", "interp.run", 1), "ms", 1);
  Report("exec.dynamic_insts", double(DynInsts), "count", R.Outputs.size());
  Report("fuzz.generate_ms", RootLayer("setup", "fuzz.generate", Setups),
         "ms", R.SetupS.size());
  Report("fuzz.oracle_ms_p50", median(R.OracleMs), "ms", R.OracleMs.size());
  char Note[96];
  std::snprintf(Note, sizeof(Note), " (p%g, %zu beyond)", OT.Percentile,
                OT.Beyond);
  Report("fuzz.oracle_ms_tail", OT.Value, "ms", OT.Samples, Note);
  Report("kernels.build_ms", RootLayer("setup", "kernels.build", Setups),
         "ms", R.SetupS.size());
  Report("trace.overhead_pct",
         Untraced > 0 ? 100.0 * (Traced - Untraced) / Untraced : 0, "%",
         R.TracedCycleMs.size());
  Report("trace.unattributed_pct",
         OpTotal > 0 ? 100.0 * OpHarness / OpTotal : 0, "%", R.TracedCycles);
  printResult(Correct, R.Attempted, R.NumFailed, Metrics);
  return Correct ? 0 : 1;
}
