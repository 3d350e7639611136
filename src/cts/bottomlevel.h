#pragma once

#include "analysis/evaluate.h"
#include "cts/slack.h"
#include "rctree/clocktree.h"

namespace contango {

/// Bottom-level fine-tuning (paper section IV-G): once the top-down phases
/// have pushed skew low, only the wires directly connected to sinks are
/// touched — their effect on a single sink's latency is the most
/// predictable.  Gains are small (a couple of ps) but are a large fraction
/// of the remaining skew; the limit is rise-fall corner divergence.

struct BottomLevelParams {
  /// Snake unit for sink edges (finer than the top-down unit).
  Um unit = 5.0;
  /// Calibrated per-unit delay of a sink-edge snake (worst case).
  Ps twn_per_unit = 0.0;
  /// Fraction of a sink's slack consumed per round.
  double safety = 0.5;
  /// Maximum snake units per sink edge per round.
  int max_units = 60;
};

/// Calibrates the per-unit snake delay on sink edges: snakes the first
/// few sink edges by one unit in one `probe` (an edit session that is
/// evaluated and rolled back).  `tree` is the tree `probe` edits.
Ps calibrate_bottom_twn(const ClockTree& tree, const EditProbe& probe,
                        const EvalResult& baseline, Um unit);

/// One fine-tuning pass over sink edges (edit deltas through the session):
/// snakes fast sinks (and narrows still-wide sink edges when their slack
/// is ample).  Returns edits made.
int bottom_level_round(TreeEditSession& session, const EdgeSlacks& slacks,
                       const BottomLevelParams& params);

}  // namespace contango
