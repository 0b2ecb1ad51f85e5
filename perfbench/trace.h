/// \file trace.h
/// \brief In-memory span recorder for the perfbench traced run.
///
/// A span is one timed call into a layer of lmfao_core, recorded from the
/// benchmark's own code: a name, a start, an end, the span that encloses
/// it, and the id of the operation it belongs to. Spans stay in memory
/// until the run ends; then they are summarized into per-layer figures and
/// written as a Chrome trace-event file (chrome://tracing, Perfetto).
///
/// All recording happens on the client thread, so spans nest strictly and
/// a span's children never overlap: self time is duration minus the sum of
/// the direct children's durations.

#ifndef LMFAO_PERFBENCH_TRACE_H_
#define LMFAO_PERFBENCH_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace lmfao {
namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at top level.
    int op = -1;      ///< Operation id; see set_op.
  };

  /// Spans and counters are recorded only while enabled.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Groups everything recorded from now on under operation `op`. Each
  /// per-layer figure is a median over operations.
  void set_op(int op) { op_ = op; }
  int op() const { return op_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name);
  /// Closes the span Begin returned.
  void End(int index);

  /// Adds `value` to counter `name` of the current operation.
  void Count(const char* name, double value);

  /// True when any span or counter called `name` was recorded.
  bool Has(const std::string& name) const;

  /// Per-operation totals of span `name`, in ms: one entry per operation
  /// that recorded it.
  std::vector<double> TotalsMs(const std::string& name) const;
  /// Per-operation totals of the self time of span `name`, in ms.
  std::vector<double> SelfMs(const std::string& name) const;
  /// Per-operation number of spans called `name`.
  std::vector<double> Occurrences(const std::string& name) const;
  /// Per-operation values of counter `name`.
  std::vector<double> Counter(const std::string& name) const;

  /// Writes the spans as Chrome trace events, plus `summary` (name ->
  /// value) under "otherData". Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, double>& summary) const;

 private:
  double NowUs() const;
  double SelfUs(int index) const;

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  bool enabled_ = false;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  /// (counter name, op) -> value.
  std::map<std::pair<std::string, int>, double> counters_;
};

/// Records one span over its scope; does nothing (not even a clock read)
/// when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Median with linear interpolation (Python's statistics.median); 0 for
/// an empty sample.
double Median(std::vector<double> values);

}  // namespace perfbench
}  // namespace lmfao

#endif  // LMFAO_PERFBENCH_TRACE_H_
