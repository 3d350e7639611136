#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geom/obstacle_set.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace contango {

/// Obstacle-avoiding point-to-point router.
///
/// Routes on the escape graph spanned by the x/y coordinates of the two
/// terminals and of all obstacle corners inside a search window — the
/// classic guarantee is that a shortest rectilinear obstacle-avoiding path
/// exists on this grid.  Dijkstra with L1 edge weights finds it.  Wires may
/// run along obstacle boundaries but not through interiors.
class MazeRouter {
 public:
  /// `bounds` clips all routing (typically the chip outline).
  MazeRouter(const ObstacleSet& obstacles, Rect bounds);

  /// Shortest legal rectilinear path from `from` to `to` as a polyline
  /// (first point == from, last == to, axis-parallel segments).  Returns
  /// nullopt when the terminals are disconnected (e.g. a terminal strictly
  /// inside an obstacle with no legal escape).
  std::optional<std::vector<Point>> route(const Point& from,
                                          const Point& to) const;

  /// Length of the shortest legal route, or nullopt when unroutable.
  std::optional<Um> route_length(const Point& from, const Point& to) const;

 private:
  std::optional<std::vector<Point>> route_in_window(const Point& from,
                                                    const Point& to,
                                                    const Rect& window) const;

  const ObstacleSet& obstacles_;
  Rect bounds_;
};

/// Escape-graph edges that pass through an obstacle interior, on the grid
/// xs × ys (both ascending and distinct, nx = xs.size()).  `h[iy * nx + ix]`
/// marks the edge from (xs[ix], ys[iy]) to (xs[ix + 1], ys[iy]), and
/// `v[iy * nx + ix]` the edge from (xs[ix], ys[iy]) to (xs[ix], ys[iy + 1]).
struct BlockedEdges {
  std::vector<char> h;
  std::vector<char> v;
};

/// Marks the blocked edges of the grid xs × ys, once for a whole route
/// search.  `candidates` indexes `rects` and must hold every rectangle that
/// intersects the grid's bounding box (ObstacleSet::rects_intersecting of
/// it).  A mark is set by the comparisons HVSegment::crosses_interior
/// makes, so it equals ObstacleSet::blocks_segment on that edge.
BlockedEdges mark_blocked_edges(const std::vector<double>& xs,
                                const std::vector<double>& ys,
                                const std::vector<Rect>& rects,
                                const std::vector<std::size_t>& candidates);

}  // namespace contango
