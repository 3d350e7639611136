#pragma once

#include "netlist/benchmark.h"
#include "rctree/clocktree.h"

namespace contango {

/// Options of the obstacle legalization pass.
struct ObstacleRepairOptions {
  /// Capacitance a single (strongest planned) buffer can drive without slew
  /// risk; subtrees over an obstacle at or below this stay where they are,
  /// driven by a buffer placed just before the obstacle (paper step 2).
  Ff slew_free_cap = 400.0;

  /// Longest unbuffered wire run over an obstacle that one buffer can still
  /// drive slew-cleanly: the distributed wire tau r*c*L^2/2 alone limits the
  /// crossing even when the capacitance fits.  Crossings above this length
  /// are detoured regardless of load.
  Um max_crossing_um = 800.0;

  /// Fraction of slew_free_cap a kept crossing's downstream load may reach.
  /// Conservative because several kept crossings can share one buffer
  /// stage, so their budgets add up.
  double crossing_cap_factor = 0.5;
};

/// Outcome counters of one legalization pass.
struct ObstacleRepairReport {
  int l_flips = 0;          ///< crossings fixed by choosing the other L-shape
  int maze_reroutes = 0;    ///< point-to-point wires rerouted around obstacles
  int contour_detours = 0;  ///< enclosed subtrees moved onto obstacle contours
  int kept_crossings = 0;   ///< crossings kept because one buffer drives them
  int failed_routes = 0;    ///< crossings kept because no legal maze route exists
  Um added_wirelength = 0.0;
};

/// Obstacle-avoiding repair of a ZST (paper section IV-A):
///
///  Step 1 - every wire crossing an obstacle first tries the alternative
///           L-shape configuration (minimizing overlap); remaining
///           point-to-point crossings are maze-routed around the blockage.
///  Step 2 - a subtree enclosed by an obstacle whose total capacitance can
///           be driven by a single buffer keeps its route over the macro:
///           the buffer-insertion DP will place a driver just before it.
///  Step 3 - larger enclosed subtrees are detoured along the obstacle
///           contour: the entire contour is taken as the detour and the
///           contour segment furthest from the tree source (in contour
///           distance) is removed, minimizing the longest detoured
///           source-to-sink path rather than total capacitance.
///
/// The pass preserves connectivity and sink positions; it may lengthen
/// wires and unbalance delays (repaired afterwards by the electrical
/// optimizations, as the paper prescribes).
ObstacleRepairReport repair_obstacles(ClockTree& tree, const Benchmark& bench,
                                      const ObstacleRepairOptions& options = {});

/// Verification helper: true when no tree wire crosses any obstacle
/// interior whose downstream capacitance exceeds the slew-free budget
/// (i.e. all remaining crossings are single-buffer-drivable).
bool obstacle_legal(const ClockTree& tree, const Benchmark& bench,
                    Ff slew_free_cap);

}  // namespace contango
