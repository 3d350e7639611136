#pragma once

#include <vector>

#include "netlist/benchmark.h"
#include "rctree/clocktree.h"

namespace contango {

class TreeEditSession;  // rctree/extract.h

/// Trunk-level buffer optimization (paper sections IV-H and IV-I).
///
/// With a boundary clock source, DME produces one long wire to the chip
/// center — the tree trunk — that carries 1/3 to 1/2 of the sink latency
/// and therefore a large share of the variational impact.  Upsizing and
/// evenly respacing the trunk's inverter chain reduces CLR with little
/// effect on skew because it delays all sinks equally.

/// The trunk: the root-to-first-branch path.
struct TrunkInfo {
  std::vector<NodeId> path;     ///< nodes from the root to the first branch
  std::vector<NodeId> buffers;  ///< buffer nodes on the path, top to bottom
  Um length = 0.0;              ///< routed length of the path
};

/// Identifies the trunk (follows single-child nodes from the root).
TrunkInfo find_trunk(const ClockTree& tree);

/// Sliding + interleaving: removes the trunk's buffers and re-inserts the
/// chain evenly spaced (adding one when the spacing would exceed
/// `max_spacing`, the slew-safe distance).  Buffer positions blocked by
/// obstacles slide to the nearest legal spot.  Returns the trunk buffer
/// count after the pass.
int slide_and_interleave_trunk(ClockTree& tree, const Benchmark& bench,
                               const CompositeBuffer& buffer, Um max_spacing);

/// Sizes up every trunk buffer by `fraction` (composite count is scaled and
/// rounded up in whole inverters).  Iteration i of the paper's schedule
/// passes fraction = 1/(i+3).  The resizes are journaled in the session as
/// edit deltas (O(dirty) accept/rollback in the TBSZ loop).  Returns
/// buffers changed.
int upsize_trunk_buffers(TreeEditSession& session, double fraction);

/// Capacitance-borrowing branch sizing: buffers within `levels` buffer
/// levels below the first branch are scaled up by `fraction`...
int upsize_branch_buffers(TreeEditSession& session, int levels, double fraction);

/// ...while bottom-level buffers (the last buffer above each sink) donate
/// capacitance by shrinking `steps` base inverters, never below one.
/// Returns buffers changed.
int downsize_bottom_buffers(TreeEditSession& session, int steps);

/// Stage-count equalization: tops up every source-to-sink path to the
/// maximum buffer depth found in the tree by inserting `buffer` repeaters
/// as high up as the deficit allows (shared-path deficits are paid once).
/// Van Ginneken insertion spares buffers on fast paths; each added stage
/// slows such a path by roughly one stage delay, which both cuts skew and
/// makes every path's supply-voltage sensitivity track together (the CLR
/// objective).  All sinks end at equal inversion parity, so the subsequent
/// polarity pass needs at most one top-level inverter.  Returns the number
/// of buffers added.
int equalize_stage_counts(ClockTree& tree, const Benchmark& bench,
                          const CompositeBuffer& buffer);

}  // namespace contango
