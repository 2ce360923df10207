//===- lslpbench/HostSpeed.h - Host speed probe -----------------*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed unit of the benchmark's own work whose time tracks the host's
/// speed. A shared host's speed drifts by up to a third in phases of tens
/// of seconds, in CPU time as much as in wall time, so a whole run can sit
/// in a slow phase and even its fastest repetitions read slow. The gated
/// times are therefore scaled by host speed: a sample taken where the
/// probes around it took P ms (median) is multiplied by ProbeReferenceMs /
/// P. It then reads as milliseconds on a host where the probe takes
/// ProbeReferenceMs. The probe is not program code, so no change to the
/// program moves it.
///
//===----------------------------------------------------------------------===//
#ifndef LSLPBENCH_HOSTSPEED_H
#define LSLPBENCH_HOSTSPEED_H

#include "Trace.h"

#include <vector>

namespace lslpbench {

/// The probe's time, in ms, at the reference host speed. It is a fixed
/// unit, not a measurement: on a shared 4-vCPU Xeon (Sapphire Rapids class)
/// guest the probe took 0.28-0.55 ms from phase to phase.
constexpr double ProbeReferenceMs = 0.35;

/// Runs the probe once and returns its wall time in ms.
double probeMs();

/// Probes taken at most every MinGapMs, and the scale factor their median
/// gives, over all of them or over those near a point in time.
class HostSpeed {
public:
  HostSpeed(double MinGapMs, double WindowMs)
      : MinGapMs(MinGapMs), WindowMs(WindowMs) {}

  /// Runs the probe if MinGapMs have passed since the last one, or if no
  /// probe was taken yet.
  void maybeProbe();

  /// Adds a probe of \p Ms centred on \p At, which must not precede the
  /// last one.
  void record(Clock::time_point At, double Ms);

  /// ProbeReferenceMs over the median of all probes; 1 when there was none.
  double factor() const;

  /// ProbeReferenceMs over the median of the probes taken within WindowMs
  /// of \p At; factor() when there was none.
  double factorAt(Clock::time_point At) const;

private:
  struct Probe {
    Clock::time_point At; ///< Midpoint of the probe.
    double Ms;
  };
  double MinGapMs, WindowMs;
  std::vector<Probe> Probes; ///< In time order.
};

} // namespace lslpbench

#endif // LSLPBENCH_HOSTSPEED_H
