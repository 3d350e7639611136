#include "cts/baseline.h"

#include <functional>

#include "cts/buflib.h"
#include "cts/bufferopt.h"
#include "cts/dme.h"
#include "cts/rebalance.h"
#include "cts/obstacles.h"
#include "cts/polarity.h"
#include "cts/slack.h"
#include "cts/vanginneken.h"
#include "cts/wiresizing.h"
#include "cts/wiresnaking.h"
#include "util/timer.h"

namespace contango {
namespace {

BaselineResult finish(ClockTree tree, Timer& timer, Evaluator& eval) {
  BaselineResult result;
  result.eval = eval.evaluate(tree);
  result.tree = std::move(tree);
  result.sim_runs = eval.sim_runs();
  result.seconds = timer.seconds();
  return result;
}

/// Shared balanced front-end: ZST + repair + rebalance + buffering +
/// equalization + polarity; optionally one wiresizing and one snaking pass.
BaselineResult balanced_baseline(const Benchmark& bench, bool wiresize,
                                 bool snake) {
  Timer timer;
  Evaluator eval(bench);
  const CompositeBuffer unit = best_unit_composite(bench.tech);

  ClockTree tree = build_zst(bench);
  ObstacleRepairOptions repair;
  repair.slew_free_cap = slew_free_cap(bench.tech, unit, 0.68);
  repair_obstacles(tree, bench, repair);
  rebalance_pathlength(tree);
  insert_buffers(tree, bench, unit);
  equalize_stage_counts(tree, bench, unit);
  correct_polarity(tree, bench, smallest_inverter(bench.tech));

  EvalResult current = eval.evaluate(tree);
  // The calibration probes edit the tree through a session and undo it.
  const EditProbe probe = [&](const std::function<void(TreeEditSession&)>& edit) {
    TreeEditSession session(tree);
    edit(session);
    const EvalResult probed = eval.evaluate(tree);
    session.rollback();
    return probed;
  };
  if (wiresize) {
    WireSizingParams params;
    params.tws_per_um = calibrate_tws(tree, probe, current);
    const EdgeSlacks slacks = compute_edge_slacks(tree, current);
    TreeEditSession session(tree);
    if (wiresizing_round(session, slacks, params) > 0) {
      const EvalResult r = eval.evaluate(tree);
      if (r.nominal_skew < current.nominal_skew && !r.slew_violation) {
        current = r;
      } else {
        session.rollback();
      }
    }
  }
  if (snake) {
    WireSnakingParams params;
    params.twn_per_unit = calibrate_twn(tree, probe, current, params.unit);
    const EdgeSlacks slacks = compute_edge_slacks(tree, current);
    TreeEditSession session(tree);
    if (wiresnaking_round(session, slacks, params) > 0) {
      const EvalResult r = eval.evaluate(tree);
      if (!(r.nominal_skew < current.nominal_skew && !r.slew_violation)) {
        session.rollback();
      }
    }
  }
  return finish(std::move(tree), timer, eval);
}

}  // namespace

BaselineResult run_baseline_construction(const Benchmark& bench) {
  return balanced_baseline(bench, false, false);
}

BaselineResult run_baseline_bst(const Benchmark& bench) {
  return balanced_baseline(bench, true, false);
}

BaselineResult run_baseline_tuned(const Benchmark& bench) {
  return balanced_baseline(bench, true, true);
}

}  // namespace contango
