#pragma once

#include "analysis/evaluate.h"
#include "cts/slack.h"
#include "rctree/clocktree.h"

namespace contango {

/// Iterative top-down wiresizing (paper section IV-E, Algorithm 1).
///
/// The initial tree uses the widest wire everywhere (fast sinks first);
/// downsizing an edge raises the latency of every downstream sink, so
/// edges with slow-down slack can be narrowed to cut skew — few wires high
/// in the tree instead of many at the bottom.

struct WireSizingParams {
  /// Calibrated worst-case latency increase per downsized micrometer
  /// (the paper's T_ws, divided by the sampled wire length).
  Ps tws_per_um = 0.0;
  /// Fraction of the available slack a round may consume (guards the
  /// linear model's error).
  double safety = 0.6;
  /// Ignore edges whose predicted effect is below this (ps).
  Ps min_gain = 0.05;
};

/// Calibrates T_ws: picks several independent mid-tree edges, downsizes
/// them in one `probe` (an edit session that is evaluated and rolled back)
/// and returns the worst observed latency increase per micrometer of
/// downsized wire.  Returns 0, without probing, when the tree has nothing
/// to downsize (already narrow).  `tree` is the tree `probe` edits.
Ps calibrate_tws(const ClockTree& tree, const EditProbe& probe,
                 const EvalResult& baseline);

/// One top-down pass of Algorithm 1: walks the tree breadth-first carrying
/// the already-consumed slack (RSlack) and downsizes every edge whose
/// remaining slow-down slack exceeds the predicted latency increase.
/// Edits go through the session (edit deltas, O(dirty) accept/rollback in
/// the IVC loop).  Returns the number of edges downsized.
int wiresizing_round(TreeEditSession& session, const EdgeSlacks& slacks,
                     const WireSizingParams& params);

}  // namespace contango
