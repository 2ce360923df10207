//===- lslpbench/Pipeline.h - The timed text-to-text compile ----*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile the benchmark times: the public calls `lslpc` makes, in
/// its order (tools/lslpc.cpp compileModule):
///
///   parseModuleOrError -> verifyModule -> [runEarlyCSE] ->
///   [runIfConversion] -> [runLoopUnroll] -> SLPVectorizerPass::runOnModule
///   -> verifyModule -> printModule
///
/// with each call wrapped in a span named after its layer. Kept as thin as
/// lslpc's copy so that it can be replaced by a shared pipeline once the
/// repository has one.
///
//===----------------------------------------------------------------------===//
#ifndef LSLPBENCH_PIPELINE_H
#define LSLPBENCH_PIPELINE_H

#include "Trace.h"

#include "vectorizer/Config.h"

#include <memory>
#include <string>

namespace lslp {
class Context;
class Module;
} // namespace lslp

namespace lslpbench {

struct CompileJob {
  /// Vectorizer configuration; its EnableIfConversion/EnableLoopUnroll
  /// select the CFG passes, its Strategy names the vectorizer span
  /// ("vectorizer" or "vectorizer.global").
  lslp::VectorizerConfig Config;
  /// Run early-cse first (lslpc -early-cse).
  bool EarlyCSE = false;
};

struct CompileResult {
  bool Ok = false;
  std::string Error;  ///< Set when !Ok.
  std::string Output; ///< Printed vectorized module.
  int StaticCost = 0; ///< ModuleReport::acceptedCost().
  unsigned Accepted = 0;
  /// The vectorized module itself, kept only when asked for. Execution
  /// uses it rather than re-parsing Output: the printer numbers unnamed
  /// values from %0 even where the parsed input already holds values named
  /// %0, %1, ..., so such outputs do not parse back.
  std::shared_ptr<lslp::Context> Ctx;
  std::shared_ptr<lslp::Module> M;
};

/// Compiles \p Text. \p T may be null (untraced). With \p KeepModule the
/// result also owns the compiled module.
CompileResult compileText(const std::string &Text, const CompileJob &Job,
                          Tracer *T, bool KeepModule = false);

} // namespace lslpbench

#endif // LSLPBENCH_PIPELINE_H
