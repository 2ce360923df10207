//===- lslpbench/Stats.h - Sample summaries ---------------------*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Median and tail of a latency sample. A tail percentile is reported only
/// when at least ten samples lie strictly beyond it; below that, one stray
/// sample decides the value and two runs of the same code disagree.
///
//===----------------------------------------------------------------------===//
#ifndef LSLPBENCH_STATS_H
#define LSLPBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace lslpbench {

/// Samples that must lie beyond a reported tail percentile.
constexpr size_t MinSamplesBeyondTail = 10;

/// Nearest-rank percentile \p P (0 < P <= 100) of \p Values: the smallest
/// sample with at least P% of the samples at or below it. Empty input
/// gives 0.
double percentile(std::vector<double> Values, double P);

/// percentile(Values, 50).
double median(const std::vector<double> &Values);

/// Number of samples strictly beyond the nearest-rank percentile \p P of
/// \p N samples.
size_t samplesBeyond(size_t N, double P);

/// The percentile a tail of \p N samples is reported at: \p Preferred when
/// at least MinSamplesBeyondTail samples lie beyond it, otherwise the
/// highest of 99, 95, 90, 75 and 50 that has them. Returns 0 when not even
/// the median has them (fewer than 20 samples): no tail is defined.
double tailPercentile(size_t N, double Preferred);

struct Tail {
  double Percentile = 0; ///< 0 when undefined.
  double Value = 0;
  size_t Samples = 0;
  size_t Beyond = 0;
};

/// The tail of \p Values at tailPercentile(Values.size(), Preferred).
Tail tailOf(const std::vector<double> &Values, double Preferred);

} // namespace lslpbench

#endif // LSLPBENCH_STATS_H
