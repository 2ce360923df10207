//===- lslpbench/Trace.cpp - In-memory span recorder ----------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cassert>

using namespace lslpbench;

int Tracer::begin(const char *Name) {
  int Parent = Open.empty() ? -1 : Open.back();
  uint64_t Op = Parent < 0 ? NextOp++ : Spans[Parent].Op;
  Spans.push_back({Name, nowNs(), -1, Parent, Op});
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void Tracer::end(int Id) {
  assert(!Open.empty() && Open.back() == Id && "spans must nest");
  Spans[Id].EndNs = nowNs();
  Open.pop_back();
}

std::map<std::string, std::map<std::string, double>>
Tracer::selfMsByRoot() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  std::vector<size_t> Root(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Root[I] = S.Parent < 0 ? I : Root[S.Parent];
    if (S.Parent >= 0 && S.EndNs >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  }
  std::map<std::string, std::map<std::string, double>> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].EndNs >= 0)
      Out[Spans[Root[I]].Name][Spans[I].Name] +=
          (Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) / 1e6;
  return Out;
}
