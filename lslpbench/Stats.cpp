//===- lslpbench/Stats.cpp - Sample summaries -----------------------------===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace lslpbench;

namespace {

/// 1-based nearest rank of percentile P among N samples.
size_t nearestRank(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

} // namespace

double lslpbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  size_t Rank = nearestRank(Values.size(), P);
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1),
                   Values.end());
  return Values[Rank - 1];
}

double lslpbench::median(const std::vector<double> &Values) {
  return percentile(Values, 50);
}

size_t lslpbench::samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

double lslpbench::tailPercentile(size_t N, double Preferred) {
  if (samplesBeyond(N, Preferred) >= MinSamplesBeyondTail)
    return Preferred;
  for (double P : {99.0, 95.0, 90.0, 75.0, 50.0})
    if (P < Preferred && samplesBeyond(N, P) >= MinSamplesBeyondTail)
      return P;
  return 0;
}

Tail lslpbench::tailOf(const std::vector<double> &Values, double Preferred) {
  Tail T;
  T.Samples = Values.size();
  T.Percentile = tailPercentile(Values.size(), Preferred);
  if (T.Percentile > 0) {
    T.Value = percentile(Values, T.Percentile);
    T.Beyond = samplesBeyond(Values.size(), T.Percentile);
  }
  return T;
}
