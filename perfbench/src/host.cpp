#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "base/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_SIMD
#define PERFBENCH_SIMD 0
#endif

namespace perfbench {
namespace {

std::string readFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

}  // namespace

vls::JsonValue hostRecord() {
  vls::JsonValue::Object o;
  o["nproc"] = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  o["hardware_concurrency"] = static_cast<int>(std::thread::hardware_concurrency());
  const char* env = std::getenv("VLS_THREADS");
  o["VLS_THREADS"] = env != nullptr ? std::string(env) : std::string("(unset)");
  o["threads"] = vls::parallelThreadCount();
  o["scheduler"] = vls::parallelSchedulerName();
  o["build_type"] = PERFBENCH_BUILD_TYPE;
  o["compiler"] = PERFBENCH_COMPILER;
  o["flags"] = PERFBENCH_FLAGS;
  o["SSTVS_SIMD"] = PERFBENCH_SIMD != 0;
  return vls::JsonValue(std::move(o));
}

ResourceSample sampleResources() {
  ResourceSample s;
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ..." in clock ticks, summed over all CPUs.
  std::istringstream line(readFirstLine("/proc/stat"));
  std::string label;
  long long fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  line >> label;
  for (long long& f : fields) line >> f;
  const long ticks = sysconf(_SC_CLK_TCK);
  if (label == "cpu" && ticks > 0) s.steal_s = static_cast<double>(fields[7]) / ticks;
  return s;
}

double peakRssMib() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
