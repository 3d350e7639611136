#pragma once

#include <cstddef>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "geom/segment.h"
#include "geom/spatial.h"

namespace contango {

/// A compound obstacle: one or more abutting/overlapping rectangles that
/// must be treated as a single blockage because no buffer can be placed
/// between them (paper section IV-A).  `contour` is the outer boundary of
/// the union, a closed counter-clockwise rectilinear polygon; the last
/// vertex connects back to the first.
struct CompoundObstacle {
  std::vector<std::size_t> rect_indices;  ///< indices into ObstacleSet rects
  Rect bounds;                            ///< bounding box of the union
  std::vector<Point> contour;             ///< outer boundary, CCW, closed
};

/// The set of placement obstacles of a benchmark.  Supports the queries the
/// clock-tree legalization pass needs: does a wire segment cross an obstacle
/// interior, which compound obstacle does it cross, is a point legal for
/// buffer placement, and what is the contour of a compound obstacle.
///
/// Rectangles whose interiors overlap or that abut along a boundary segment
/// are grouped into compound obstacles at construction.
///
/// Queries run against an interval-tree spatial index (O(log n + k) per
/// probe).  Non-intersecting rectangles would contribute exactly nothing
/// to any query result, so every answer equals a linear scan over rects():
/// the boolean probes and compound_containing (lowest index wins) do not
/// depend on the order they see candidates in and walk the tree without
/// allocating; blocked_length sums in ascending rectangle-index order.
class ObstacleSet {
 public:
  ObstacleSet() = default;
  explicit ObstacleSet(std::vector<Rect> rects);

  const std::vector<Rect>& rects() const { return rects_; }
  const std::vector<CompoundObstacle>& compounds() const { return compounds_; }
  bool empty() const { return rects_.empty(); }

  /// Area of the union of all obstacle rectangles (Klee sweep, computed
  /// once at construction).
  double union_area() const { return union_area_; }

  /// Indices (ascending) of rectangles intersecting `window` (closed
  /// test).  MazeRouter uses this to collect escape-graph coordinates.
  std::vector<std::size_t> rects_intersecting(const Rect& window) const;

  /// Compound obstacle that owns rectangle `rect_index`.
  std::size_t compound_of(std::size_t rect_index) const {
    return rect_to_compound_[rect_index];
  }

  /// True when p lies strictly inside some obstacle rectangle.  Buffers may
  /// not be placed at such points; boundary points are legal.
  bool blocks_point(const Point& p) const;

  /// True when the axis-parallel segment passes through any obstacle
  /// interior.  Running along an obstacle boundary is legal.
  bool blocks_segment(const HVSegment& seg) const;

  /// Compound obstacles whose interiors the segment crosses (deduplicated,
  /// ascending).  Empty when the segment is legal.
  std::vector<std::size_t> crossed_compounds(const HVSegment& seg) const;

  /// Convenience: checks a full polyline of axis-parallel segments.
  bool blocks_polyline(const std::vector<Point>& pts) const;

  /// Total length of the segment running through obstacle interiors
  /// (overlapping rectangles may count twice — callers use this as a
  /// conservative bound on unbuffered crossing length).
  Um blocked_length(const HVSegment& seg) const;

  /// Sum of blocked_length over a polyline.
  Um blocked_length(const std::vector<Point>& pts) const;

  /// Index of the compound obstacle strictly containing p, or npos.
  std::size_t compound_containing(const Point& p) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  void build_groups();
  void build_contours();

  std::vector<Rect> rects_;
  std::vector<CompoundObstacle> compounds_;
  std::vector<std::size_t> rect_to_compound_;

  RectIntervalIndex index_;
  double union_area_ = 0.0;
};

/// Computes the outer contour (closed CCW rectilinear polygon) of a union of
/// rectangles.  Exposed for unit testing; ObstacleSet uses it per compound.
std::vector<Point> union_contour(const std::vector<Rect>& rects);

/// Arc length of a closed contour.
Um contour_length(const std::vector<Point>& contour);

/// Position (arc length from contour[0], walking in contour order) of the
/// point on the contour closest to p in Manhattan distance; also returns the
/// snapped point itself through `snapped`.
Um contour_project(const std::vector<Point>& contour, const Point& p,
                   Point* snapped);

/// Point at arc length s along the closed contour (s taken modulo length).
Point contour_at(const std::vector<Point>& contour, Um s);

/// Extracts the contour walk from arc position s0 to s1 moving forward
/// (in contour orientation), as a polyline including both endpoints.
std::vector<Point> contour_walk(const std::vector<Point>& contour, Um s0,
                                Um s1);

}  // namespace contango
