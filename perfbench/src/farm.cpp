// `farm` workload: one NLDM .lib build — characterizeCells with the
// default CharRequest (4 cell kinds x the standard corners x 5x5 slew x
// load grids on the lane engine), then writeLiberty and
// validateLiberty. It is the only workload on EnsembleSimulator and
// lane bypass; its (cell, corner) tasks are uneven, so the slowest task
// sets the wall time.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "base/parallel.hpp"
#include "io/liberty_validate.hpp"
#include "io/liberty_writer.hpp"
#include "sim/simulator.hpp"
#include "host.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

const char* kindTag(vls::ShifterKind kind) {
  switch (kind) {
    case vls::ShifterKind::Sstvs: return "sstvs";
    case vls::ShifterKind::CombinedVs: return "combined";
    case vls::ShifterKind::InverterOnly: return "inverter";
    case vls::ShifterKind::SsvsPuri: return "puri";
    default: return "other";
  }
}

vls::CharRequest farmRequest(Size size) {
  vls::CharRequest req;  // library defaults: kinds, corners, 5x5 grid, lanes
  if (size == Size::Smoke) {
    req.corners = {vls::standardCharCorners().front()};
    req.grid.slews = {30e-12, 120e-12};
    req.grid.loads = {1e-15, 4e-15};
  }
  return req;
}

/// Circuit construction and warm-up: each kind's direct-drive
/// testbench built and solved once, and the worker pool started.
void setUp(const vls::CharRequest& req) {
  for (vls::ShifterKind kind : req.kinds) {
    vls::HarnessConfig h = req.base;
    h.kind = kind;
    h.direct_drive = true;
    vls::ShifterTestbench tb(h);
    vls::Simulator sim(tb.circuit(), h.sim);
    sim.solveOp();
  }
  vls::parallelFor(vls::parallelThreadCount(), [](size_t) {});
}

}  // namespace

WorkloadResult runFarm(const WorkloadContext& ctx) {
  const vls::CharRequest req = farmRequest(ctx.size);
  const std::vector<vls::CharCorner> corners =
      req.corners.empty() ? vls::standardCharCorners() : req.corners;
  WorkloadResult r;
  r.info["kinds"] = std::to_string(req.kinds.size());
  r.info["corners"] = std::to_string(corners.size());
  r.info["grid"] = std::to_string(req.grid.slews.size()) + "x" + std::to_string(req.grid.loads.size());
  r.info["lane_width"] = std::to_string(req.grid.lane_width);
  r.info["deterministic"] = "yes (no random inputs; --seed is recorded only)";

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = rep == 0 ? ctx.process_start : Clock::now();
    setUp(req);
    r.setup_s.push_back(since(t0));
  }

  const double cpu0 = sampleResources().cpu_s;
  Span wall(ctx.tracer, "farm");
  std::vector<vls::CharTable> tables;
  {
    Span s(ctx.tracer, "analysis.char");
    tables = vls::characterizeCells(req);
    r.layers["analysis.char_s"] = s.stop();
  }
  std::string lib;
  {
    Span s(ctx.tracer, "io.lib_write");
    lib = vls::writeLiberty(vls::LibertyLibrarySpec{},
                            vls::libertyCellsFromCharacterization(tables));
    r.layers["io.lib_write_s"] = s.stop();
  }
  {
    Span s(ctx.tracer, "io.lib_validate");
    r.checks["lib_valid"] = vls::validateLiberty(lib).ok() ? 1.0 : 0.0;
  }
  r.wall_s = wall.stop();
  r.cpu_s = sampleResources().cpu_s - cpu0;
  r.layers["io.lib_bytes"] = static_cast<double>(lib.size());

  size_t points = 0;
  size_t fallbacks = 0;
  size_t retried = 0;
  for (const vls::CharTable& t : tables) {
    points += t.points.size();
    fallbacks += t.scalar_fallbacks;
    retried += t.retried_points;
    r.failed += t.failures.size();
    // Sampled NLDM entries: the grid corners and the centre.
    const size_t ns = t.slews.size();
    const size_t nl = t.loads.size();
    const std::string k = std::string("nldm.") + kindTag(t.kind) + "." + t.corner.name.substr(0, 2);
    const std::pair<size_t, size_t> picks[] = {{0, 0}, {ns - 1, nl - 1}, {ns / 2, nl / 2}};
    for (const auto& [si, li] : picks) {
      const vls::CharPoint& p = t.at(si, li);
      const std::string pk = k + ".s" + std::to_string(si) + "l" + std::to_string(li);
      r.checks[pk + ".delay_rise_ps"] = 1e12 * p.delay_rise;
      r.checks[pk + ".delay_fall_ps"] = 1e12 * p.delay_fall;
    }
  }
  r.attempted = points;
  r.info["lane_rel_tol"] = num(req.grid.lane_rel_tol);
  r.figures["farm_points_per_s"] = points / r.layers["analysis.char_s"];
  r.layers["analysis.char.scalar_fallback_frac"] = static_cast<double>(fallbacks) / points;
  r.layers["analysis.char.retried_points"] = static_cast<double>(retried);

  if (ctx.traced) {
    // The same (cell, corner) tasks one at a time on one thread: their
    // times give the imbalance (the slowest task bounds the wall time),
    // their sum the 1-thread time for the scaling figure.
    const int threads = vls::parallelThreadCount();
    double task_max = 0.0;
    double task_sum = 0.0;
    setThreads(1);
    {
      Span serial(ctx.tracer, "analysis.char.serial_tasks");
      for (vls::ShifterKind kind : req.kinds) {
        for (const vls::CharCorner& corner : corners) {
          Span s(ctx.tracer, std::string("analysis.char.task.") + kindTag(kind) + "." +
                                 corner.name.substr(0, 2));
          vls::characterizeCell(kind, corner, req.grid, req.base);
          const double sec = s.stop();
          task_max = std::max(task_max, sec);
          task_sum += sec;
        }
      }
    }
    setThreads(threads);
    r.layers["analysis.char.task_max_s"] = task_max;
    r.layers["analysis.char.task_sum_s"] = task_sum;
    r.layers["base.farm.imbalance"] = task_max / (task_sum / threads);
    r.layers["base.scaling_eff.farm"] = task_sum / (threads * r.layers["analysis.char_s"]);
  }
  return r;
}

}  // namespace perfbench
