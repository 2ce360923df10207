//===- lslpbench/SelfTest.cpp - Tests of the benchmark's own code ---------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Pipeline.h"
#include "ScaleGen.h"
#include "Stats.h"
#include "Trace.h"

#include <gtest/gtest.h>

#include <thread>

using namespace lslpbench;

namespace {

ScaleBlock generate(const ScaleOptions &O) {
  ScaleBlock B;
  std::string Err;
  EXPECT_TRUE(generateScaleBlock(O, B, Err)) << Err;
  return B;
}

TEST(ScaleGen, SameSeedGivesIdenticalText) {
  ScaleOptions O;
  O.Seed = 42;
  EXPECT_EQ(generate(O).Text, generate(O).Text);
  ScaleOptions Other = O;
  Other.Seed = 43;
  EXPECT_NE(generate(O).Text, generate(Other).Text);
}

TEST(ScaleGen, BlocksVerifyAndStayNearRequestedSize) {
  for (unsigned Insts : {64u, 640u, 2048u, 8192u})
    for (unsigned Lanes : {2u, 4u, 8u})
      for (bool FP : {false, true}) {
        ScaleOptions O;
        O.Seed = Insts + Lanes;
        O.Instructions = Insts;
        O.Lanes = Lanes;
        O.FloatElems = FP;
        ScaleBlock B = generate(O);
        const unsigned Group = InstructionsPerLane * Lanes;
        EXPECT_EQ(B.Instructions, B.Groups * Group + 1);
        // Rounded to whole groups: within half a group of the request.
        EXPECT_LE(std::abs(int(B.Instructions) - int(Insts)),
                  int(Group / 2 + 1))
            << Insts << " x" << Lanes;
      }
}

TEST(ScaleGen, RejectsNonPowerOfTwoLanes) {
  ScaleOptions O;
  O.Lanes = 3;
  ScaleBlock B;
  std::string Err;
  EXPECT_FALSE(generateScaleBlock(O, B, Err));
  EXPECT_FALSE(Err.empty());
}

// The scale workload's gate: LSLP accepts one bundle per store group, for
// any flip pattern and any share of groups in the shared array.
TEST(ScaleGen, LSLPAcceptsOneBundlePerGroup) {
  for (double Shared : {0.0, 0.25, 1.0}) {
    ScaleOptions O;
    O.Seed = 7;
    O.Instructions = 640;
    O.SharedShare = Shared;
    ScaleBlock B = generate(O);
    for (auto Strategy : {lslp::VectorizerConfig::PackingStrategyKind::Greedy,
                          lslp::VectorizerConfig::PackingStrategyKind::Global}) {
      CompileJob Job{lslp::VectorizerConfig::lslp(8), false};
      Job.Config.Strategy = Strategy;
      CompileResult R = compileText(B.Text, Job, nullptr);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Accepted, B.Groups) << "shared share " << Shared;
    }
  }
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 50), 50);
  EXPECT_EQ(percentile(V, 90), 90);
  EXPECT_EQ(percentile(V, 100), 100);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(99, 90), 9u);
  // 1000 samples: p99 has exactly 10 beyond.
  EXPECT_EQ(tailPercentile(1000, 99), 99);
  // 999 samples: p99 has 9 beyond, so the tail falls back to p95.
  EXPECT_EQ(tailPercentile(999, 99), 95);
  EXPECT_EQ(tailPercentile(100, 99), 90);
  EXPECT_EQ(tailPercentile(40, 75), 75);
  EXPECT_EQ(tailPercentile(39, 75), 50);
  // Fewer than 20 samples: no percentile has ten beyond it.
  EXPECT_EQ(tailPercentile(19, 99), 0);
  std::vector<double> V(200);
  for (size_t I = 0; I != V.size(); ++I)
    V[I] = double(I);
  Tail T = tailOf(V, 99);
  EXPECT_EQ(T.Percentile, 95);
  EXPECT_EQ(T.Value, 189);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_EQ(T.Samples, 200u);
}

TEST(Trace, SelfTimesAccountForTheRoot) {
  Tracer T;
  {
    TraceScope Op(&T, "op");
    {
      TraceScope A(&T, "a");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      TraceScope B(&T, "b");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    TraceScope C(&T, "a");
  }
  ASSERT_EQ(T.spans().size(), 4u);
  EXPECT_EQ(T.spans()[0].Parent, -1);
  EXPECT_EQ(T.spans()[2].Parent, 1);
  for (const Span &S : T.spans())
    EXPECT_EQ(S.Op, 0u);
  auto ByRoot = T.selfMsByRoot();
  ASSERT_EQ(ByRoot.size(), 1u);
  auto &Self = ByRoot["op"];
  double Sum = 0;
  for (const auto &[Name, Ms] : Self)
    Sum += Ms;
  const Span &Root = T.spans()[0];
  EXPECT_NEAR(Sum, (Root.EndNs - Root.StartNs) / 1e6, 1e-6);
  EXPECT_GE(Self["b"], 2.0);
  EXPECT_GE(Self["a"], 2.0);
  TraceScope Next(&T, "next");
  EXPECT_EQ(T.spans().back().Op, 1u);
}

TEST(HostSpeed, FactorUsesTheProbesNearASample) {
  using std::chrono::milliseconds;
  HostSpeed Speed(8, 500);
  const Clock::time_point T0 = Clock::now();
  EXPECT_EQ(Speed.factor(), 1.0);
  EXPECT_EQ(Speed.factorAt(T0), 1.0);
  const double Ref = ProbeReferenceMs;
  Speed.record(T0, Ref);
  Speed.record(T0 + milliseconds(100), Ref);
  Speed.record(T0 + milliseconds(10000), 2 * Ref);
  EXPECT_DOUBLE_EQ(Speed.factor(), 1.0);
  EXPECT_DOUBLE_EQ(Speed.factorAt(T0 + milliseconds(50)), 1.0);
  EXPECT_DOUBLE_EQ(Speed.factorAt(T0 + milliseconds(9600)), 0.5);
  // No probe within the window: fall back to all of them.
  EXPECT_DOUBLE_EQ(Speed.factorAt(T0 + milliseconds(5000)), 1.0);
}

TEST(HostSpeed, ProbesNoMoreOftenThanTheGap) {
  // A recorded 1 s probe: any real probe is far faster and, once taken,
  // becomes the nearest-rank median of the two.
  HostSpeed Rare(3.6e6, 500), Often(0, 500);
  for (HostSpeed *S : {&Rare, &Often}) {
    S->record(Clock::now(), 1000);
    S->maybeProbe();
  }
  EXPECT_DOUBLE_EQ(Rare.factor(), ProbeReferenceMs / 1000);
  EXPECT_GT(Often.factor(), ProbeReferenceMs / 1000);
}

} // namespace
