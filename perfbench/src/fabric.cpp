// `fabric` workload: the 200-island voltage-island chain (11,752
// devices, 5,381 unknowns). buildFabric, fabricDcGuess, solveOp under
// applyFabricSolverOptions, then a warm-started pulse-edge transient.
// One large circuit: the parallelism sits inside each solve (sharded
// assembly), and sparse LU, ordering, BBD and the recovery ladder
// carry real weight.
//
// OP policy: with applyFabricSolverOptions and the fabricDcGuess
// nodeset, the default RecoveryPolicy throws at 50 and 100 islands
// (all four stages fail, ~6,000 pseudo-transient Newton iterations).
// The workload therefore raises recovery.ptran_max_steps to 2000 and
// ptran_grow to 2.0, the values bench_perf_solver uses; the traced run
// reports the ladder (sim.op.<stage>.*) so the landing in
// pseudo-transient stays visible.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fabric_bootstrap.hpp"
#include "analysis/measure.hpp"
#include "base/error.hpp"
#include "base/parallel.hpp"
#include "cells/fabric.hpp"
#include "circuit/assembly.hpp"
#include "circuit/mna.hpp"
#include "numeric/lu_sparse.hpp"
#include "sim/diagnostics.hpp"
#include "sim/simulator.hpp"
#include "host.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct FabricSize {
  int islands;
  double t_stop;  ///< transient window [s]
  double dt_max;  ///< transient step ceiling [s]
};

FabricSize fabricSize(Size size) {
  if (size == Size::Smoke) return {6, 0.5e-9, 10e-12};
  return {200, 0.7e-9, 10e-12};
}

/// The built fabric and the two simulators the timed work uses.
struct FabricSetup {
  vls::Circuit circuit;
  vls::FabricHandles handles;
  vls::SimOptions options;
  std::unique_ptr<vls::Simulator> op_sim;
  std::unique_ptr<vls::Simulator> tran_sim;
};

std::unique_ptr<FabricSetup> setUp(const vls::FabricSpec& spec) {
  auto s = std::make_unique<FabricSetup>();
  s->handles = vls::buildFabric(s->circuit, spec);
  vls::applyFabricSolverOptions(s->options, s->handles);
  s->options.recovery.ptran_max_steps = 2000;
  s->options.recovery.ptran_grow = 2.0;
  s->op_sim = std::make_unique<vls::Simulator>(s->circuit, s->options);
  s->tran_sim = std::make_unique<vls::Simulator>(s->circuit, s->options);
  return s;
}

std::string stageKey(vls::RecoveryStage stage) {
  std::string name = vls::recoveryStageName(stage);
  for (char& ch : name) ch = ch == '-' ? '_' : ch;
  return name;
}

/// Four disjoint phases plus the rest of the span. phaseTimes() counts
/// model evaluation inside assembly; assembly_s here is the remainder
/// (stamp apply/reduce), so the five parts add up to the span.
void addPhases(WorkloadResult& r, const std::string& prefix, const vls::SimPhaseTimes& ph,
               double span_s) {
  r.layers[prefix + ".assembly_s"] = ph.assembly_sec - ph.model_eval_sec;
  r.layers[prefix + ".model_eval_s"] = ph.model_eval_sec;
  r.layers[prefix + ".factor_s"] = ph.factor_sec;
  r.layers[prefix + ".solve_s"] = ph.solve_sec;
  r.layers[prefix + ".other_s"] = span_s - ph.assembly_sec - ph.factor_sec - ph.solve_sec;
}

/// Per-layer extras of the traced run, all on the converged operating
/// point `x` of the workload's circuit.
void traceLayers(const WorkloadContext& ctx, const FabricSize& sz, FabricSetup& s,
                 const std::vector<double>& guess, const std::vector<double>& x,
                 WorkloadResult& r) {
  // Recovery ladder of the OP: solveOp does not return its record, so
  // re-solve from the bootstrap guess inside a minimal transient.
  {
    Span span(ctx.tracer, "sim.op_ladder");
    vls::SimOptions opt = s.options;
    opt.nodeset = std::make_shared<const std::vector<double>>(guess);
    vls::Simulator sim(s.circuit, opt);
    const vls::TransientResult tr = sim.transient(sz.dt_max * 1e-3, sz.dt_max * 1e-3);
    for (vls::RecoveryStage st : {vls::RecoveryStage::DirectNewton, vls::RecoveryStage::GminStepping,
                                  vls::RecoveryStage::SourceStepping,
                                  vls::RecoveryStage::PseudoTransient}) {
      r.layers["sim.op." + stageKey(st) + ".rungs"] = 0.0;
      r.layers["sim.op." + stageKey(st) + ".newton_iters"] = 0.0;
    }
    if (!tr.recovery_events.empty()) {
      for (const vls::StageAttempt& a : tr.recovery_events.front().stages) {
        r.layers["sim.op." + stageKey(a.stage) + ".rungs"] += a.rungs;
        r.layers["sim.op." + stageKey(a.stage) + ".newton_iters"] +=
            static_cast<double>(a.newton_iterations);
      }
    }
  }

  // Linear-solver and assembly costs on the converged DC Jacobian, with
  // the workload's ordering.
  {
    Span span(ctx.tracer, "fabric.jacobian");
    vls::Circuit& c = s.circuit;
    const size_t branches = c.assignBranchIndices();
    const vls::EvalContext ectx = s.op_sim->contextFor(x, 0.0);
    vls::MnaSystem sys(c.nodeCount(), branches);
    constexpr int kReps = 10;
    {
      Span a(ctx.tracer, "circuit.assemble_direct");
      for (int i = 0; i < kReps; ++i) vls::assembleDirect(sys, c, ectx);
      r.layers["circuit.assemble_direct_us"] = 1e6 * a.stop() / kReps;
    }
    vls::SparseLu lu;
    lu.setOrdering(s.options.lu_ordering);
    {
      Span f(ctx.tracer, "numeric.lu.factor");
      lu.factor(sys.matrix());
      r.layers["numeric.lu.factor_ms"] = 1e3 * f.stop();
    }
    r.layers["numeric.lu.fill"] = static_cast<double>(lu.fillCount());
    {
      Span f(ctx.tracer, "numeric.lu.refactor");
      for (int i = 0; i < kReps; ++i) lu.refactor(sys.matrix());
      r.layers["numeric.lu.refactor_ms"] = 1e3 * f.stop() / kReps;
    }
    {
      Span f(ctx.tracer, "numeric.lu.solve");
      std::vector<double> y;
      for (int i = 0; i < kReps; ++i) {
        y = sys.rhs();
        lu.solveInPlace(y);
      }
      r.layers["numeric.lu.solve_ms"] = 1e3 * f.stop() / kReps;
    }
  }

  {
    vls::SimOptions opt = s.options;
    opt.nodeset = std::make_shared<const std::vector<double>>(x);
    r.layers["base.scaling_eff.fabric_tran"] =
        scalingEfficiency(ctx.tracer, "base.scaling_repeat.fabric_tran", r.figures["tran_s"], [&] {
          vls::Simulator sim(s.circuit, opt);
          sim.transient(sz.t_stop, sz.dt_max);
        });
  }
}

}  // namespace

WorkloadResult runFabric(const WorkloadContext& ctx) {
  const FabricSize sz = fabricSize(ctx.size);
  vls::FabricSpec spec;
  spec.islands = sz.islands;
  // Input edge close to t=0: the window is the edge propagating through
  // the boundary shifters, not the quiet preamble.
  spec.input_pulse.delay = 0.2e-9;

  WorkloadResult r;
  r.info["islands"] = std::to_string(sz.islands);
  r.info["t_stop_s"] = num(sz.t_stop);
  r.info["dt_max_s"] = num(sz.dt_max);
  r.info["recovery.ptran_max_steps"] = "2000";
  r.info["recovery.ptran_grow"] = "2.0";
  r.info["deterministic"] = "yes (no random inputs; --seed is recorded only)";

  std::unique_ptr<FabricSetup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = rep == 0 ? ctx.process_start : Clock::now();
    s.reset();
    s = setUp(spec);
    r.setup_s.push_back(since(t0));
  }
  r.info["partition_decision"] = s->op_sim->partitionDecision();

  const double cpu0 = sampleResources().cpu_s;
  Span wall(ctx.tracer, "fabric");
  r.attempted = 2;  // the operating point and the transient
  std::vector<double> guess;
  std::vector<double> x;
  std::optional<vls::TransientResult> tr;
  double bootstrap_s = 0.0;
  double op_s = 0.0;
  double tran_s = 0.0;
  try {
    {
      Span b(ctx.tracer, "analysis.bootstrap");
      guess = vls::fabricDcGuess(s->circuit, spec);
      bootstrap_s = b.stop();
    }
    {
      Span op(ctx.tracer, "sim.op");
      s->op_sim->options().nodeset = std::make_shared<const std::vector<double>>(guess);
      x = s->op_sim->solveOp();
      op_s = op.stop();
    }
    {
      Span t(ctx.tracer, "sim.tran");
      s->tran_sim->options().nodeset = std::make_shared<const std::vector<double>>(x);
      tr = s->tran_sim->transient(sz.t_stop, sz.dt_max);
      tran_s = t.stop();
    }
  } catch (const vls::Error&) {
    r.failed = x.empty() ? 2 : 1;
  }
  r.wall_s = wall.stop();
  r.cpu_s = sampleResources().cpu_s - cpu0;
  r.figures["op_s"] = bootstrap_s + op_s;
  r.figures["tran_s"] = tran_s;
  r.layers["analysis.bootstrap_s"] = bootstrap_s;
  r.layers["sim.op_s"] = op_s;
  r.layers["sim.tran_s"] = tran_s;
  r.layers["circuit.unknowns"] = static_cast<double>(s->op_sim->numUnknowns());
  r.layers["circuit.devices"] = static_cast<double>(s->circuit.devices().size());
  if (!tr) return r;

  // Checked outputs. The window ends while the edge is still leaving
  // island 0 (island 1 switches later), so the transient is checked at
  // island 0's output and at the far end of its boundary wire, and the
  // final output at its operating point, which the whole chain sets.
  const vls::FabricIsland& first = s->handles.islands.front();
  auto crossingPs = [&](vls::NodeId node, double supply) {
    const vls::Signal sig = tr->node(s->circuit.nodeName(node));
    const std::optional<double> t50 = vls::crossTime(sig, 0.5 * supply, vls::CrossDir::Either);
    return t50 ? 1e12 * *t50 : -1.0;
  };
  r.checks["island0.out_cross_ps"] = crossingPs(first.out, first.supply);
  r.checks["boundary0.net_cross_ps"] = crossingPs(s->handles.boundaries.front().node, first.supply);
  r.checks["final_out.op_v"] = x[static_cast<size_t>(s->handles.final_out)];

  if (ctx.traced) {
    addPhases(r, "sim.op", s->op_sim->phaseTimes(), op_s);
    addPhases(r, "sim.tran", s->tran_sim->phaseTimes(), tran_s);
    r.layers["sim.tran.steps"] = static_cast<double>(tr->steps());
    r.layers["sim.tran.newton_iters"] = static_cast<double>(tr->total_newton_iterations);
    r.layers["sim.tran.rejected_steps"] = static_cast<double>(tr->rejected_steps);
    r.layers["devices.eval_ns_per_device_iter"] =
        1e9 * s->tran_sim->phaseTimes().model_eval_sec /
        (static_cast<double>(tr->total_newton_iterations) * s->circuit.devices().size());
    if (const vls::BbdLu* bbd = s->tran_sim->bbdSolver()) {
      const double refactors = static_cast<double>(bbd->blockRefactors());
      const double skipped = static_cast<double>(bbd->blockRefactorsSkipped());
      r.layers["numeric.bbd.block_refactors"] = refactors;
      r.layers["numeric.bbd.skip_frac"] = skipped / (refactors + skipped);
    }
    traceLayers(ctx, sz, *s, guess, x, r);
  }
  return r;
}

}  // namespace perfbench
