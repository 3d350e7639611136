#pragma once

#include "analysis/evaluate.h"
#include "netlist/benchmark.h"
#include "rctree/clocktree.h"

namespace contango {

/// Baseline clock-tree flows standing in for the ISPD'09 contest teams in
/// the Table IV comparison (the teams' binaries are not available; these
/// span the same qualitative range: balanced flows with construction only,
/// one wiresizing pass, or one wiresizing and one snaking pass).

struct BaselineResult {
  ClockTree tree;
  EvalResult eval;
  int sim_runs = 0;
  double seconds = 0.0;
};

/// Construction-only baseline ("weak team"): ZST/DME + obstacle repair +
/// buffering + polarity, nothing else.
BaselineResult run_baseline_construction(const Benchmark& bench);

/// Balanced baseline ("mid team"): construction plus one calibrated
/// wiresizing pass — none of the iterative SPICE-driven refinement.
BaselineResult run_baseline_bst(const Benchmark& bench);

/// Tuned baseline ("strong team"): construction plus one wiresizing and
/// one wiresnaking pass, still without trunk/buffer optimization or
/// bottom-level tuning.
BaselineResult run_baseline_tuned(const Benchmark& bench);

}  // namespace contango
