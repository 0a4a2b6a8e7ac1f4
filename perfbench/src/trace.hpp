// In-memory span recorder for the benchmark's traced run. Spans are
// opened and closed around calls into the simulator's layers from the
// benchmark's own code (the library itself is not instrumented); each
// span keeps its name, start, end and parent, and every span of one
// workload run carries the same run id. Nothing is written until the
// run ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

struct SpanRecord {
  std::string name;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at the root
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Span still measures time.
  Tracer(bool enabled, std::string run_id);

  const std::string& runId() const { return run_id_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Open a child of the innermost open span; returns its id, or -1
  /// when disabled.
  int open(std::string name, Clock::time_point start);
  /// Close span `id` (and any span still open inside it).
  void close(int id, Clock::time_point end);

 private:
  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Scoped timer around one call into a layer. Always measures its own
/// duration (the untraced metrics come from the same timers) and, when
/// the tracer is enabled, records a span.
class Span {
 public:
  Span(Tracer& tracer, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span now; returns its duration. Later calls return the
  /// same duration.
  double stop();

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
