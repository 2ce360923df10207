//===- lslpbench/Pipeline.cpp - The timed text-to-text compile ------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "costmodel/TargetTransformInfo.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "parser/Parser.h"
#include "support/OStream.h"
#include "transforms/EarlyCSE.h"
#include "transforms/IfConversion.h"
#include "transforms/LoopUnroll.h"
#include "vectorizer/SLPVectorizerPass.h"

#include <memory>
#include <vector>

using namespace lslp;
using namespace lslpbench;

CompileResult lslpbench::compileText(const std::string &Text,
                                     const CompileJob &Job, Tracer *T,
                                     bool KeepModule) {
  CompileResult R;
  const VectorizerConfig &Config = Job.Config;
  auto Ctx = std::make_shared<Context>();
  std::unique_ptr<Module> M;
  {
    TraceScope S(T, "parser");
    ParseDiagnostic Diag;
    Expected<std::unique_ptr<Module>> ParsedOrErr =
        parseModuleOrError(Text, *Ctx, &Diag);
    if (!ParsedOrErr) {
      R.Error = Diag.render("<input>");
      return R;
    }
    M = std::move(*ParsedOrErr);
  }
  std::vector<std::string> Errors;
  {
    TraceScope S(T, "ir.verify");
    if (!verifyModule(*M, &Errors)) {
      R.Error = "input fails verification";
      return R;
    }
  }
  SkylakeTTI TTI;
  if (Job.EarlyCSE) {
    TraceScope S(T, "transforms.early_cse");
    runEarlyCSE(*M, Config.Remarks);
  }
  if (Config.EnableIfConversion) {
    TraceScope S(T, "transforms.if_convert");
    runIfConversion(*M, Config.Remarks);
  }
  if (Config.EnableLoopUnroll) {
    TraceScope S(T, "transforms.unroll");
    runLoopUnroll(*M, Config.UnrollFactor, Config.Remarks);
  }
  {
    const bool Global =
        Config.Strategy == VectorizerConfig::PackingStrategyKind::Global;
    TraceScope S(T, Global ? "vectorizer.global" : "vectorizer");
    SLPVectorizerPass Pass(Config, TTI);
    ModuleReport Report = Pass.runOnModule(*M, 1);
    R.StaticCost = Report.acceptedCost();
    R.Accepted = Report.numAccepted();
  }
  {
    TraceScope S(T, "ir.verify");
    if (!verifyModule(*M, &Errors)) {
      R.Error = "output fails verification";
      return R;
    }
  }
  {
    TraceScope S(T, "ir.print");
    StringOStream OS(R.Output);
    printModule(OS, *M);
  }
  R.Ok = true;
  if (KeepModule)
    // The deleter holds the Context, so it outlives the module.
    R.M = std::shared_ptr<Module>(M.release(),
                                  [Ctx](Module *P) { delete P; });
  return R;
}
