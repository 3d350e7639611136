#pragma once

#include "analysis/evaluate.h"
#include "cts/slack.h"
#include "rctree/clocktree.h"

namespace contango {

/// Iterative top-down wiresnaking (paper section IV-F): serpentine wire is
/// added on edges with slow-down slack.  Snaking has a smaller, more
/// predictable effect than wiresizing, so it runs after it and pushes skew
/// into the low single digits.

struct WireSnakingParams {
  /// Unit snake length l_wn in um: snake is added in integer multiples.
  /// Smaller units are more accurate but need more evaluation rounds.
  Um unit = 20.0;
  /// Calibrated worst-case delay of one snake unit (the paper's T_wn).
  Ps twn_per_unit = 0.0;
  /// Fraction of remaining slack a round may consume.
  double safety = 0.5;
  /// Maximum snake units one edge may receive per round.
  int max_units_per_edge = 40;
};

/// Calibrates T_wn: adds one snake unit to several independent mid-tree
/// edges in one `probe` (an edit session that is evaluated and rolled
/// back) and returns the worst per-unit latency increase.  `tree` is the
/// tree `probe` edits.
Ps calibrate_twn(const ClockTree& tree, const EditProbe& probe,
                 const EvalResult& baseline, Um unit);

/// One top-down snaking pass over the session (edit deltas); returns the
/// number of edges snaked.
int wiresnaking_round(TreeEditSession& session, const EdgeSlacks& slacks,
                      const WireSnakingParams& params);

}  // namespace contango
