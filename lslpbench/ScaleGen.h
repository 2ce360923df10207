//===- lslpbench/ScaleGen.h - Seeded straight-line blocks -------*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generator of the `scale` workload's inputs: one function whose single
/// block is a run of store groups, each group `Lanes` lanes of
///
///   O[k] = A[k] * B[k] + C[k]        (mul/add, or fmul/fadd for double)
///
/// with every lane 10 instructions (3 gep+load pairs, mul, add, gep,
/// store). The settings fix how many groups are flipped and shared; the
/// seed decides which:
///   - which groups have their operand order flipped: odd lanes of a
///     flipped group swap the operands of both the multiply and the add,
///     so only look-ahead operand reordering recovers one vector tree;
///   - which groups store into the shared array @S instead of their own
///     output array @O. Stores into @S are all candidate aliases of each
///     other, so alias queries cannot be answered by "different object".
///
/// Every group's lanes are consecutive, independent and in bounds, so the
/// LSLP vectorizer accepts exactly one bundle per group.
///
//===----------------------------------------------------------------------===//
#ifndef LSLPBENCH_SCALEGEN_H
#define LSLPBENCH_SCALEGEN_H

#include <cstdint>
#include <string>

namespace lslpbench {

struct ScaleOptions {
  uint64_t Seed = 1;
  /// Requested instruction count of the block (the generator rounds to
  /// whole groups; at least one group).
  unsigned Instructions = 2048;
  unsigned Lanes = 4;
  /// Element type: i64 (false) or double (true).
  bool FloatElems = false;
  /// Share of groups whose operand order is flipped.
  double FlipRate = 0.5;
  /// Share of groups that store into the shared array @S.
  double SharedShare = 0.25;
};

struct ScaleBlock {
  uint64_t Seed = 0;
  std::string Text;          ///< Textual IR module.
  std::string Function;      ///< Name of the block's function.
  unsigned Instructions = 0; ///< Actual instruction count (verified).
  unsigned Groups = 0;       ///< Store groups = expected accepted bundles.
};

/// Instructions one lane of a group contributes.
constexpr unsigned InstructionsPerLane = 10;

/// Generates one block. The text is parsed back and checked with
/// verifyModule; returns false with a message in \p Err if that fails.
bool generateScaleBlock(const ScaleOptions &Opts, ScaleBlock &Out,
                        std::string &Err);

} // namespace lslpbench

#endif // LSLPBENCH_SCALEGEN_H
