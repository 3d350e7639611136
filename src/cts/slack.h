#pragma once

#include <vector>

#include "analysis/evaluate.h"
#include "rctree/clocktree.h"

namespace contango {

/// Slow-down / speed-up slack analysis (paper section III).
///
/// For sink s:   Slack_slow(s) = Tmax - T(s),  Slack_fast(s) = T(s) - Tmin
/// (Definition 1): how much the sink's latency may unilaterally move
/// without increasing skew.  For edge e the slack is the minimum over its
/// downstream sinks (Definition 2 / Lemma 1), computed in O(n) bottom-up.
/// Rise and fall transitions and every supply corner are handled
/// separately; an edge's usable slack is the minimum across all of them
/// (section III-B, multicorner handling).
///
/// With a non-trivial TimingConstraints block the definition generalizes:
/// Tmax/Tmin become the extrema of the sink's own domain, a bounded
/// arrival window [lo, hi] further caps how far the relative arrival
/// r(s) = T(s) - Tref (Tref = earliest reached sink) may drift, and each
/// inter-domain bound {a, b, B} caps movement against the opposite
/// domain's extrema.  Every term reduces to Definition 1 when the block
/// is trivial, and windowed slacks may be negative for violating sinks.
struct EdgeSlacks {
  /// Indexed by tree NodeId (the edge above that node).  Nodes without
  /// downstream sinks (tombstones) carry +inf.
  std::vector<Ps> slow;
  std::vector<Ps> fast;

  /// Delta_e = Slack_e - Slack_parent(e) (Proposition 1): slowing every
  /// edge by exactly delta_slow makes both skew and all slacks zero.
  std::vector<Ps> delta_slow;
  std::vector<Ps> delta_fast;
};

/// What constrains the slack besides the global skew.  Every (corner,
/// transition) combination of the evaluation always does.
struct SlackOptions {
  /// Optional timing-constraint block.  nullptr (or a trivial block)
  /// reproduces the legacy global-skew slacks bit-for-bit.
  const TimingConstraints* constraints = nullptr;
};

/// Computes sink and edge slacks from one evaluation result.
EdgeSlacks compute_edge_slacks(const ClockTree& tree, const EvalResult& eval,
                               const SlackOptions& options = {});

}  // namespace contango
