#pragma once

#include "rctree/clocktree.h"

namespace contango {

/// Post-repair pathlength rebalance.
///
/// Obstacle detours lengthen some source-to-sink paths by millimeters and
/// destroy the ZST's balance ("detours may significantly increase skew" —
/// paper section IV-A).  This equalizes root-to-sink *electrical length*
/// by adding snake, distributing each path's deficit as high in the tree
/// as the downstream minimum allows.  Snake on one path never changes
/// another path's length, so a single pass is exact.  Returns the added
/// snake in um.  This is the flow's post-detour repair: buffered path
/// delay tracks electrical length, so a length-balanced tree enters buffer
/// insertion with near-uniform latencies.
Um rebalance_pathlength(ClockTree& tree);

}  // namespace contango
