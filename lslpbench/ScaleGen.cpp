//===- lslpbench/ScaleGen.cpp - Seeded straight-line blocks ---------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ScaleGen.h"

#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "support/RNG.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

using namespace lslp;
using namespace lslpbench;

namespace {

/// Marks exactly round(Share * N) of N slots, the seed deciding which.
std::vector<bool> pickShare(RNG &Rng, unsigned N, double Share) {
  std::vector<unsigned> Order(N);
  for (unsigned I = 0; I != N; ++I)
    Order[I] = I;
  for (unsigned I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  const auto K = static_cast<unsigned>(
      std::lround(std::clamp(Share, 0.0, 1.0) * N));
  std::vector<bool> Marked(N, false);
  for (unsigned I = 0; I != K; ++I)
    Marked[Order[I]] = true;
  return Marked;
}

} // namespace

bool lslpbench::generateScaleBlock(const ScaleOptions &Opts, ScaleBlock &Out,
                                   std::string &Err) {
  if (Opts.Lanes < 2 || (Opts.Lanes & (Opts.Lanes - 1))) {
    Err = "lanes must be a power of two >= 2";
    return false;
  }
  const unsigned PerGroup = InstructionsPerLane * Opts.Lanes;
  // One instruction is the terminating `ret void`.
  const unsigned Groups = std::max(
      1u, static_cast<unsigned>(std::lround(
              std::max(0.0, double(Opts.Instructions) - 1) / PerGroup)));
  const unsigned Len = Groups * Opts.Lanes;
  const std::string Ty = Opts.FloatElems ? "double" : "i64";
  const std::string Mul = Opts.FloatElems ? "fmul" : "mul";
  const std::string Add = Opts.FloatElems ? "fadd" : "add";

  RNG Rng(Opts.Seed);
  const std::vector<bool> Flipped = pickShare(Rng, Groups, Opts.FlipRate);
  const std::vector<bool> Shared = pickShare(Rng, Groups, Opts.SharedShare);
  std::string T;
  T.reserve(static_cast<size_t>(Len) * 400);
  T += "module \"scale\"\n\n";
  for (const char *G : {"A", "B", "C", "O", "S"})
    T += std::string("global @") + G + " = [" + std::to_string(Len) + " x " +
         Ty + "]\n";
  T += "\ndefine void @block() {\nentry:\n";
  for (unsigned G = 0; G != Groups; ++G) {
    const bool Flip = Flipped[G];
    const char *Dst = Shared[G] ? "S" : "O";
    for (unsigned L = 0; L != Opts.Lanes; ++L) {
      const std::string K = std::to_string(G * Opts.Lanes + L);
      const std::string S = "_" + K;
      auto Load = [&](const char *Arr) {
        std::string P = std::string("%p") + Arr + S, V = std::string("%") +
                                                         char(Arr[0] + 32) + S;
        T += "  " + P + " = gep " + Ty + ", ptr @" + Arr + ", i64 " + K + "\n";
        T += "  " + V + " = load " + Ty + ", ptr " + P + "\n";
        return V;
      };
      std::string A = Load("A"), B = Load("B"), C = Load("C");
      const bool Swap = Flip && (L & 1);
      T += "  %m" + S + " = " + Mul + " " + Ty + " " + (Swap ? B : A) + ", " +
           (Swap ? A : B) + "\n";
      T += "  %s" + S + " = " + Add + " " + Ty + " " +
           (Swap ? C + ", %m" + S : "%m" + S + ", " + C) + "\n";
      T += "  %q" + S + " = gep " + Ty + ", ptr @" + Dst + ", i64 " + K + "\n";
      T += "  store " + Ty + " %s" + S + ", ptr %q" + S + "\n";
    }
  }
  T += "  ret void\n}\n";

  Context Ctx;
  std::unique_ptr<Module> M = parseModule(T, Ctx, Err);
  if (!M)
    return false;
  std::vector<std::string> Errors;
  if (!verifyModule(*M, &Errors)) {
    Err = Errors.empty() ? "verification failed" : Errors.front();
    return false;
  }
  Out.Seed = Opts.Seed;
  Out.Text = std::move(T);
  Out.Function = "block";
  Out.Instructions = M->getFunction("block")->getInstructionCount();
  Out.Groups = Groups;
  return true;
}
