// The three benchmark workloads. Each runs one iteration of its batch
// job through the library API and fills a WorkloadResult; main.cpp
// adds the host record and writes it out.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Problem size: `full` is what BENCHMARK.json runs; `smoke` is the
/// few-second size the benchmark's own tests use.
enum class Size { Full, Smoke };

/// Set-up repetitions per process; setup_s is their median.
constexpr int kSetupReps = 9;

struct WorkloadContext {
  Tracer& tracer;
  uint64_t seed = 1;
  Size size = Size::Full;
  /// Traced run: also take the per-layer measurements (1-thread
  /// repeat, extra ladder solve, LU timings), which cost extra time.
  bool traced = false;
  /// Start of main(); the first set-up repetition is timed from here.
  Clock::time_point process_start;
  /// Paper workload only: sample whose simulation gets an injected
  /// zero-pivot fault (-1 = none). Tests use it to prove fail_frac
  /// counts failures.
  int fault_sample = -1;
};

struct WorkloadResult {
  /// Durations of the repeated set-up; the first is timed from the
  /// start of main().
  std::vector<double> setup_s;
  /// Timed work of the iteration [s].
  double wall_s = 0.0;
  /// Process CPU seconds spent in the timed work.
  double cpu_s = 0.0;
  /// Work units attempted and failed (see README.md for each
  /// workload's unit).
  size_t attempted = 0;
  size_t failed = 0;
  /// Workload-specific end-to-end figures (mc_samples_per_s, op_s, ...).
  std::map<std::string, double> figures;
  /// Checked outputs, compared against reference.json.
  std::map<std::string, double> checks;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layers;
  /// Sizes and settings of the run, recorded with the result.
  std::map<std::string, std::string> info;
};

WorkloadResult runPaper(const WorkloadContext& ctx);
WorkloadResult runFarm(const WorkloadContext& ctx);
WorkloadResult runFabric(const WorkloadContext& ctx);

/// `v` as text for the info record (6 significant digits).
std::string num(double v);

/// Seconds of wall time since `start`.
double since(Clock::time_point start);

/// Set the pool width the library reads on its next parallel call.
void setThreads(int threads);

/// Scaling efficiency t1 / (P x tP) of a workload part that took
/// `main_s` at the run's thread count T: `repeat` reruns the part at 1
/// thread (P = T), or at 2 threads when T is 1 (P = 2). The repeat is
/// traced as span `name`.
double scalingEfficiency(Tracer& tracer, const std::string& name, double main_s,
                         const std::function<void()>& repeat);

}  // namespace perfbench
