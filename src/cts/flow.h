#pragma once

#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/obstacles.h"
#include "cts/polarity.h"
#include "cts/vanginneken.h"
#include "netlist/benchmark.h"
#include "rctree/clocktree.h"
#include "util/cancel.h"

namespace contango {

/// Options of the full Contango flow (paper Fig. 1).
struct FlowOptions {
  EvalOptions eval;

  /// Pass-pipeline spec (cts/pipeline.h): comma-separated pass names with
  /// optional `pass:key=value` overrides, e.g.
  /// `"dme,repair,insert,polarity,twsz,twsn:unit=10"`.  Empty runs the
  /// full default sequence (default_pipeline_spec).  The spec is the only
  /// place a pass parameter is set; each pass owns its defaults
  /// (docs/ARCHITECTURE.md lists them).  Ablation studies drop passes
  /// here.  Suite drivers bind this to the CONTANGO_PIPELINE env knob.
  std::string pipeline;

  /// Cooperative cancellation (util/cancel.h).  The pipeline polls this
  /// token at every pass boundary and throws CancelledError when it fired,
  /// so an in-flight flow stops with the tree and all reports consistent;
  /// the suite runner additionally polls it between benchmarks and marks
  /// affected runs `cancelled`.  The default token is inert (never fires).
  /// Producers: the service daemon's cancel endpoint (src/service/) and the
  /// SIGINT/SIGTERM bridge of the bench binaries (util/signal.h).
  CancelToken cancel;

  /// Reference switch for tests: false evaluates every IVC candidate with
  /// a full Evaluator::evaluate() — a fresh netlist swept with nothing
  /// cached — instead of the incremental engine's cached sweep
  /// (analysis/evaluate.h).  Both run the same propagation and give
  /// bit-identical results; only full_evals/incremental_evals move.  No
  /// env knob or CLI flag sets it.
  bool incremental = true;
};

/// Metrics recorded after each optimization stage (paper Table III rows).
/// Names are unique within one flow: a pass that repeats in a pipeline
/// snapshots as "TWSZ", "TWSZ#2", ... (FlowContext::unique_stage_name).
struct StageSnapshot {
  std::string name;  ///< INITIAL, TBSZ, TWSZ, TWSN, BWSN, TWSZ#2, ...
  Ps skew = 0.0;
  Ps clr = 0.0;
  Ps max_latency = 0.0;
  Ff cap = 0.0;
  int sim_runs = 0;  ///< cumulative evaluation count at snapshot time
  double seconds = 0.0;
};

/// What the IVC gate (FlowContext::try_accept, cts/pass.h) decided.  Every
/// gated candidate is accepted or rejected; a rejected one may have been
/// decided on capacitance before any simulation (`rejected_cap`) or on slew
/// at a level boundary of its sweep (`rejected_slew`).  All other rejects
/// (no improvement, constraints, a slew failure found at the last level)
/// ran the whole sweep.
struct IvcCounts {
  int accepted = 0;
  int rejected = 0;
  int rejected_cap = 0;   ///< of `rejected`: not simulated at all
  int rejected_slew = 0;  ///< of `rejected`: sweep stopped early
};

inline IvcCounts operator-(const IvcCounts& a, const IvcCounts& b) {
  return IvcCounts{a.accepted - b.accepted, a.rejected - b.rejected,
                   a.rejected_cap - b.rejected_cap,
                   a.rejected_slew - b.rejected_slew};
}

/// Cost accounting of one executed pass (cts/pipeline.h): where the flow's
/// wall time, CPU time and simulation budget actually went.  The EvalWork
/// fields hold what this pass spent.
struct PassTiming : EvalWork {
  std::string name;  ///< unique stage name, e.g. "INSERT", "TWSZ", "TWSZ#2"
  double wall_seconds = 0.0;
  /// CPU time of the pass: the running thread's own CPU time plus the
  /// CPU its incremental level-sweep helpers spent
  /// (Evaluator::helper_cpu_seconds; EvalOptions::threads).
  double cpu_seconds = 0.0;
  /// IVC decisions this pass made (zero for construction passes).
  IvcCounts ivc;
};

/// Full result of one Contango run.  The EvalWork fields hold what the
/// whole flow spent (the sum of the passes' plus the INITIAL evaluation);
/// the Table V scaling bench reports them.
struct FlowResult : EvalWork {
  ClockTree tree;
  EvalResult eval;
  std::vector<StageSnapshot> stages;
  ObstacleRepairReport obstacles;
  PolarityFix polarity;
  CompositeBuffer buffer{0, 1};  ///< composite selected for insertion
  /// IVC decisions over the whole flow (the sum of the passes').
  IvcCounts ivc;
  /// CPU seconds the incremental level sweep spent on helper threads over
  /// the whole flow (already included in the passes' cpu_seconds); 0 with
  /// EvalOptions::threads == 1.
  double helper_cpu_seconds = 0.0;
  double seconds = 0.0;

  /// The spec the flow actually ran (resolved_pipeline_spec of the options).
  std::string pipeline_spec;
  /// Per-pass wall/CPU time and simulation counts, in execution order.
  std::vector<PassTiming> pass_timings;

  /// Looks a stage snapshot up by name; nullptr when the stage did not run.
  /// Snapshot names are unique even when a pass repeats in the pipeline
  /// ("TWSZ", "TWSZ#2"), so the first match is the only match.
  const StageSnapshot* stage(const std::string& name) const {
    for (const StageSnapshot& s : stages) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }
};

/// Runs the integrated Contango methodology (paper Fig. 1):
///   ZST/DME -> obstacle repair -> composite selection + fast buffer
///   insertion -> polarity correction -> [CNE] -> trunk sliding/
///   interleaving + iterative buffer sizing (TBSZ, CLR objective) ->
///   iterative top-down wiresizing (TWSZ) -> top-down wiresnaking (TWSN)
///   -> bottom-level fine-tuning (BWSN).
/// Every optimization is gated by Clock-Network Evaluation plus
/// Improvement- & Violation-Checking: a step that fails to improve its
/// objective or violates slew/capacitance is rolled back and the flow
/// moves on.
///
/// This is a thin wrapper over the pass pipeline (cts/pipeline.h): it runs
/// `Pipeline::from_options(options)` — `options.pipeline` when set, else
/// the full default sequence.
FlowResult run_contango(const Benchmark& bench, const FlowOptions& options = {});

}  // namespace contango
