//===- lslpbench/Trace.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the LSLP reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each call it makes into a layer
/// of the compiler (parser, verifier, passes, engines, oracle). A span is
/// (name, start, end, parent span, op id); spans stay in memory until the
/// run ends. A layer's self time is its span time minus the time its
/// direct child spans cover, so the self times of one op add up to the
/// op's wall time.
///
/// Every recording entry point takes a `Tracer *`; null means untraced and
/// costs one branch, which is how the untraced end-to-end runs stay free of
/// tracing work.
///
//===----------------------------------------------------------------------===//
#ifndef LSLPBENCH_TRACE_H
#define LSLPBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lslpbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since \p Start.
inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

struct Span {
  const char *Name;   ///< Static string: the layer name ("parser", ...).
  int64_t StartNs;    ///< Relative to the tracer's epoch.
  int64_t EndNs;      ///< -1 while open.
  int Parent;         ///< Index of the enclosing span, -1 for a root.
  uint64_t Op;        ///< Id of the op (root span) this span belongs to.
};

class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}

  /// Opens a span nested in the innermost open one. A root span starts a
  /// new op id. Returns the span's index.
  int begin(const char *Name);
  /// Closes span \p Id (must be the innermost open span).
  void end(int Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span name, grouped by the name of the op's root span
  /// ("op.compile", "setup", ...): [root][name] -> ms.
  std::map<std::string, std::map<std::string, double>> selfMsByRoot() const;

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Epoch)
        .count();
  }

  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t NextOp = 0;
};

/// RAII span; a no-op when the tracer is null.
class TraceScope {
public:
  TraceScope(Tracer *T, const char *Name)
      : T(T), Id(T ? T->begin(Name) : -1) {}
  ~TraceScope() {
    if (T)
      T->end(Id);
  }
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  Tracer *T;
  int Id;
};

} // namespace lslpbench

#endif // LSLPBENCH_TRACE_H
