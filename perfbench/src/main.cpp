// Benchmark binary: runs one iteration of one workload and
// writes its raw record (timings, checked outputs, per-layer metrics,
// spans, host record) as JSON. perfbench/run.py loops iterations,
// checks outputs against reference.json and prints the metrics.
//
//   sstvs_perfbench --workload paper|farm|fabric [--seed N] [--trace 0|1]
//                   [--size full|smoke] [--fault-sample N] [--out FILE]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "base/parallel.hpp"
#include "host.hpp"
#include "io/json_writer.hpp"
#include "workload.hpp"

namespace perfbench {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

double since(Clock::time_point start) { return secondsBetween(start, Clock::now()); }

void setThreads(int threads) { setenv("VLS_THREADS", std::to_string(threads).c_str(), 1); }

double scalingEfficiency(Tracer& tracer, const std::string& name, double main_s,
                         const std::function<void()>& repeat) {
  const int threads = vls::parallelThreadCount();
  const int other = threads == 1 ? 2 : 1;
  setThreads(other);
  Span span(tracer, name);
  repeat();
  const double repeat_s = span.stop();
  setThreads(threads);
  const double t1 = threads == 1 ? main_s : repeat_s;
  const double tp = threads == 1 ? repeat_s : main_s;
  return t1 / (std::max(threads, other) * tp);
}

namespace {

template <class Map>
vls::JsonValue toJson(const Map& m) {
  vls::JsonValue::Object o;
  for (const auto& [k, v] : m) o[k] = v;
  return vls::JsonValue(std::move(o));
}

vls::JsonValue spansJson(const Tracer& tracer) {
  vls::JsonValue::Array a;
  for (const SpanRecord& s : tracer.spans()) {
    vls::JsonValue::Object o;
    o["name"] = s.name;
    o["id"] = s.id;
    o["parent"] = s.parent;
    o["start_s"] = s.start_s;
    o["end_s"] = s.end_s;
    o["run_id"] = tracer.runId();
    a.emplace_back(std::move(o));
  }
  return vls::JsonValue(std::move(a));
}

int usage(const char* msg) {
  std::cerr << "sstvs_perfbench: " << msg
            << "\nusage: sstvs_perfbench --workload paper|farm|fabric [--seed N] [--trace 0|1]"
               " [--size full|smoke] [--fault-sample N] [--out FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  const ResourceSample res0 = sampleResources();

  std::string workload;
  std::string out_path;
  uint64_t seed = 1;
  bool traced = false;
  Size size = Size::Full;
  int fault_sample = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--trace") {
      traced = val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "smoke") return usage("--size must be full or smoke");
      size = val == "smoke" ? Size::Smoke : Size::Full;
    } else if (arg == "--fault-sample") {
      fault_sample = std::atoi(val.c_str());
    } else if (arg == "--out") {
      out_path = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  const std::string run_id =
      workload + "-" + std::to_string(seed) + "-" + std::to_string(getpid());
  Tracer tracer(traced, run_id);
  WorkloadContext ctx{tracer, seed, size, traced, process_start, fault_sample};

  WorkloadResult r;
  try {
    if (workload == "paper") {
      r = runPaper(ctx);
    } else if (workload == "farm") {
      r = runFarm(ctx);
    } else if (workload == "fabric") {
      r = runFabric(ctx);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "sstvs_perfbench: " << workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const ResourceSample res1 = sampleResources();
  r.layers["host.cpu_s"] = res1.cpu_s - res0.cpu_s;
  r.layers["host.steal_s"] = res1.steal_s - res0.steal_s;

  vls::JsonValue::Object o;
  o["workload"] = workload;
  o["seed"] = std::to_string(seed);
  o["run_id"] = run_id;
  o["traced"] = traced;
  o["setup_s"] = vls::JsonValue(r.setup_s);
  // End of the first set-up on the steady clock (CLOCK_MONOTONIC, the
  // clock of Python's time.monotonic), so run.py can time the cold
  // start from the moment it spawned this process.
  o["setup_first_end_clock_s"] =
      std::chrono::duration<double>(process_start.time_since_epoch()).count() + r.setup_s.front();
  o["wall_s"] = r.wall_s;
  o["cpu_s"] = r.cpu_s;
  o["peak_rss_mib"] = peakRssMib();
  o["attempted"] = r.attempted;
  o["failed"] = r.failed;
  o["figures"] = toJson(r.figures);
  o["checks"] = toJson(r.checks);
  o["layers"] = toJson(r.layers);
  o["info"] = toJson(r.info);
  o["host"] = hostRecord();
  o["spans"] = spansJson(tracer);
  const vls::JsonValue doc(std::move(o));
  if (out_path.empty()) {
    std::cout << doc.dump() << "\n";
  } else {
    vls::writeJsonFile(out_path, doc);
  }
  return 0;
}
