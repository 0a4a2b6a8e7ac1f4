// `paper` workload: one regeneration of the paper's results — Tables
// 1/2 (worst-case delays), Tables 3/4 (Monte-Carlo), the Fig. 8/9
// delay surface and the functional-range claim — at reduced sizes
// (see README.md). Thousands of independent ~30-unknown circuits go
// through the scalar Simulator, so device evaluation, Newton step
// control and the work-stealing pool set the pace; LU cost is small.
#include <algorithm>
#include <string>
#include <vector>

#include "analysis/monte_carlo.hpp"
#include "analysis/shifter_harness.hpp"
#include "analysis/sweep.hpp"
#include "base/error.hpp"
#include "base/parallel.hpp"
#include "sim/simulator.hpp"
#include "host.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct PaperSize {
  int mc_samples;       ///< per (cell, direction); the paper uses 1000
  double surface_step;  ///< Fig. 8/9 grid step [V]; the paper uses 5 mV
  double range_step;    ///< functional-range grid step [V]
};

PaperSize paperSize(Size size) {
  if (size == Size::Smoke) return {4, 0.3, 0.6};
  return {40, 0.1, 0.15};
}

struct Direction {
  const char* tag;
  double vddi;
  double vddo;
};
constexpr Direction kDirections[] = {{"l2h", 0.8, 1.2}, {"h2l", 1.2, 0.8}};

struct Cell {
  const char* tag;
  vls::ShifterKind kind;
};
constexpr Cell kCells[] = {{"sstvs", vls::ShifterKind::Sstvs},
                           {"combined", vls::ShifterKind::CombinedVs}};

std::string key(const Cell& c, const Direction& d) { return std::string(c.tag) + "_" + d.tag; }

/// Circuit construction and warm-up: both cells' testbenches built and
/// solved once, and the worker pool started.
void setUp() {
  for (const Cell& c : kCells) {
    vls::HarnessConfig h;
    h.kind = c.kind;
    vls::ShifterTestbench tb(h);
    vls::Simulator sim(tb.circuit(), h.sim);
    sim.solveOp();
  }
  vls::parallelFor(vls::parallelThreadCount(), [](size_t) {});
}

/// Tables 3/4: both cells in both directions at default
/// MonteCarloConfig (ensemble_width 1, scalar engine). Returns samples run.
int runMcTables(const WorkloadContext& ctx, const PaperSize& sz, WorkloadResult* r) {
  int samples = 0;
  for (const Cell& c : kCells) {
    for (const Direction& d : kDirections) {
      vls::HarnessConfig h;
      h.kind = c.kind;
      h.vddi = d.vddi;
      h.vddo = d.vddo;
      vls::MonteCarloConfig mc;
      mc.samples = sz.mc_samples;
      mc.seed = ctx.seed;
      if (ctx.fault_sample >= 0) {
        mc.fault_sample = ctx.fault_sample;
        mc.fault.zero_pivot_node = "out";
      }
      const vls::MonteCarloResult m = vls::runMonteCarlo(h, mc);
      samples += m.samples;
      if (r == nullptr) continue;
      r->attempted += static_cast<size_t>(m.samples);
      r->failed += static_cast<size_t>(m.simulation_errors);
      r->layers["analysis.mc.retried"] += m.retried_samples;
      const std::string k = "mc." + key(c, d);
      r->checks[k + ".delay_rise_mean_ps"] = 1e12 * m.delayRise().mean;
      r->checks[k + ".delay_fall_mean_ps"] = 1e12 * m.delayFall().mean;
      // Functional share of the samples that simulated (simulation
      // errors are failures, counted apart).
      const int simulated = m.samples - m.simulation_errors;
      r->checks[k + ".yield"] =
          static_cast<double>(simulated - m.functional_failures) / std::max(simulated, 1);
    }
  }
  return samples;
}

}  // namespace

WorkloadResult runPaper(const WorkloadContext& ctx) {
  const PaperSize sz = paperSize(ctx.size);
  WorkloadResult r;
  r.info["mc_samples_per_cell_direction"] = std::to_string(sz.mc_samples);
  r.info["mc_seed"] = std::to_string(ctx.seed);
  r.info["surface_step_v"] = num(sz.surface_step);
  r.info["range_step_v"] = num(sz.range_step);

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = rep == 0 ? ctx.process_start : Clock::now();
    setUp();
    r.setup_s.push_back(since(t0));
  }

  const double cpu0 = sampleResources().cpu_s;
  Span wall(ctx.tracer, "paper");

  // Tables 1/2: worst-case input sequences, both cells, both directions.
  {
    Span s(ctx.tracer, "analysis.worst_case");
    for (const Cell& c : kCells) {
      for (const Direction& d : kDirections) {
        vls::HarnessConfig h;
        h.kind = c.kind;
        h.vddi = d.vddi;
        h.vddo = d.vddo;
        ++r.attempted;
        try {
          const vls::ShifterMetrics m = vls::measureShifterWorstCase(h);
          const std::string k = "worst_case." + key(c, d);
          r.checks[k + ".delay_rise_ps"] = 1e12 * m.delay_rise;
          r.checks[k + ".delay_fall_ps"] = 1e12 * m.delay_fall;
        } catch (const vls::Error&) {
          ++r.failed;
        }
      }
    }
    r.layers["analysis.worst_case_s"] = s.stop();
  }

  // Tables 3/4.
  int mc_samples = 0;
  {
    Span s(ctx.tracer, "analysis.mc");
    mc_samples = runMcTables(ctx, sz, &r);
    r.layers["analysis.mc_s"] = s.stop();
  }

  // Fig. 8/9 (one surface: both delays come from the same points) and
  // the functional range at 27/60/90 C.
  size_t sweep_points = 0;
  size_t failed_points = 0;
  auto countSweep = [&](const vls::Sweep2dResult& sw) {
    sweep_points += sw.points.size();
    for (const vls::SweepPoint& p : sw.points) failed_points += p.error.empty() ? 0 : 1;
  };
  {
    Span s(ctx.tracer, "analysis.sweep");
    {
      Span surface(ctx.tracer, "analysis.sweep.surface");
      vls::HarnessConfig h;
      vls::Sweep2dConfig cfg;
      cfg.step = sz.surface_step;
      const vls::Sweep2dResult sw = vls::sweepSupplies(h, cfg);
      countSweep(sw);
      r.checks["surface.functional"] = static_cast<double>(sw.functionalCount());
      const size_t last = sw.vddi_axis.size() - 1;
      r.checks["surface.l2h_corner.delay_rise_ps"] = 1e12 * sw.at(0, last).metrics.delay_rise;
      r.checks["surface.l2h_corner.delay_fall_ps"] = 1e12 * sw.at(0, last).metrics.delay_fall;
      r.checks["surface.h2l_corner.delay_rise_ps"] = 1e12 * sw.at(last, 0).metrics.delay_rise;
      r.checks["surface.h2l_corner.delay_fall_ps"] = 1e12 * sw.at(last, 0).metrics.delay_fall;
    }
    for (int temp : {27, 60, 90}) {
      const std::string tag = "range_" + std::to_string(temp) + "c";
      Span range(ctx.tracer, "analysis.sweep." + tag);
      vls::HarnessConfig h;
      h.temperature_c = temp;
      vls::Sweep2dConfig cfg;
      cfg.step = sz.range_step;
      const vls::Sweep2dResult sw = vls::sweepSupplies(h, cfg);
      countSweep(sw);
      r.checks[tag + ".functional"] = static_cast<double>(sw.functionalCount());
    }
    r.layers["analysis.sweep_s"] = s.stop();
  }
  r.attempted += sweep_points;
  r.failed += failed_points;
  r.layers["analysis.sweep.failed_points"] = static_cast<double>(failed_points);

  r.wall_s = wall.stop();
  r.cpu_s = sampleResources().cpu_s - cpu0;
  r.figures["mc_samples_per_s"] = mc_samples / r.layers["analysis.mc_s"];
  r.figures["sweep_points_per_s"] = sweep_points / r.layers["analysis.sweep_s"];

  if (ctx.traced) {
    WorkloadContext clean = ctx;
    clean.fault_sample = -1;
    r.layers["base.scaling_eff.paper_mc"] =
        scalingEfficiency(ctx.tracer, "base.scaling_repeat.paper_mc", r.layers["analysis.mc_s"],
                          [&] { runMcTables(clean, sz, nullptr); });
  }
  return r;
}

}  // namespace perfbench
