#pragma once

#include <vector>

#include "netlist/benchmark.h"
#include "rctree/clocktree.h"

namespace contango {

/// Options for fast buffer insertion.
struct BufferInsertionOptions {
  /// Candidate buffer positions are spaced this far apart (routed um) along
  /// every edge.  Smaller = better solutions, more DP work.
  Um spacing = 100.0;

  /// Safety margin applied to the slew-free capacitance bound that caps
  /// how much load any driver may see (paper: "capacitance that can be
  /// driven by a single buffer without risking slew violations").  The
  /// single-pole bound ignores input-slew feedthrough and distributed wire
  /// tau, so the margin is set from transient-engine calibration.
  double slew_margin = 0.68;

  /// Hard cap on the option-list length after pruning.
  int max_options = 64;
};

/// Result summary of one insertion run.
struct BufferInsertionResult {
  int buffers_inserted = 0;
  /// DP estimate (unscaled Elmore) of the worst source-to-sink delay.
  Ps est_worst_delay = 0.0;
};

/// Van Ginneken buffer insertion specialized for clock trees: minimizes the
/// worst Elmore source-to-sink latency with one composite buffer type,
/// subject to (i) no option presenting more than the slew-free capacitance
/// to its driver and (ii) buffers only at obstacle-legal positions.
/// Because the input tree is Elmore-balanced, minimizing worst delay spares
/// buffers on fast paths and keeps the buffered tree balanced (paper
/// sections II and IV-C).
///
/// The tree is modified in place.  The caller is expected to run this for
/// several composite-buffer candidates on copies of the tree and keep the
/// best legal result (Contango tries successively stronger composites
/// within 90% of the capacitance budget).
BufferInsertionResult insert_buffers(ClockTree& tree, const Benchmark& bench,
                                     const CompositeBuffer& buffer,
                                     const BufferInsertionOptions& options = {});

namespace detail {

/// One option of the insertion DP: downstream capacitance seen by the
/// (future) upstream driver and q = -(worst Elmore delay from here to any
/// downstream sink).  Backpointers reconstruct the buffer placement.
struct DpOption {
  Ff cap = 0.0;
  Ps q = 0.0;
  int prev = -1;    ///< option index in the previous level / first child
  int prev_b = -1;  ///< second child's option index (merge levels only)
  bool buffered = false;  ///< buffer inserted at this level's position
};

using DpOptionList = std::vector<DpOption>;

/// \brief Combines the option lists of two children meeting at a branch.
///
/// Both lists must be Pareto-pruned: cap ascending, q strictly increasing.
/// For each option of one list the best partner in the other is the
/// cheapest one whose q is at least its own, so one two-pointer sweep per
/// side yields the Pareto front of the full cross product (the
/// O(n log n)-variant behaviour of [Shi-Li 2005]) without its n*m
/// candidates.  `prev` indexes `a`, `prev_b` indexes `b`.
DpOptionList merge_options(const DpOptionList& a, const DpOptionList& b);

}  // namespace detail

}  // namespace contango
