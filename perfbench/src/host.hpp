// Host and build record attached to every benchmark result, plus the
// per-run resource counters (process CPU time, host steal time, peak
// RSS) that let a noisy run be told apart from a regression.
#pragma once

#include "io/json_writer.hpp"

namespace perfbench {

/// Static description of the host and the build: nproc,
/// hardware_concurrency, VLS_THREADS, build type, compiler and flags,
/// SSTVS_SIMD (run.py adds the git commit).
vls::JsonValue hostRecord();

/// Snapshot of the counters that are differenced over a run.
struct ResourceSample {
  double cpu_s = 0.0;    ///< this process's user + system CPU time
  double steal_s = 0.0;  ///< host-wide steal time (all CPUs), /proc/stat
};

ResourceSample sampleResources();

/// Peak resident set size of this process so far [MiB].
double peakRssMib();

}  // namespace perfbench
