#pragma once

#include <cstddef>
#include <vector>

#include "geom/rect.h"
#include "geom/tilted.h"

namespace contango {

/// \file spatial.h
/// \brief Sub-quadratic spatial indices for the geometry hot paths.
///
/// Two structures back the O(n log n) geometry engine:
///
///   - RectIntervalIndex: a static interval tree over rectangle x-extents
///     with an inline y filter.  Answers "which rectangles intersect this
///     query box" in O(log n + k) for the point/segment/window probes the
///     obstacle legality queries issue (ObstacleSet, MazeRouter).  Built
///     with a sort-tile-recursive (STR) bulk pass: sort once, partition
///     stably.
///   - TiltedNnIndex: a kd-tree over DME merge regions (tilted rectangles)
///     with subtree bounding boxes for exact nearest-neighbour pruning.
///     Replaces the flat region scan of the bottom-up merge pairing.
///
/// Every index is *bit-identical* to the linear scan it replaces: distances
/// are computed by the same expressions, candidate sets are the scan's
/// (intersecting() lists them in ascending index order), and
/// nearest-neighbour ties break toward the
/// smallest id — exactly the argmin a first-wins linear scan produces.
/// tests/test_spatial.cpp fuzzes every index against a test-local scan.

/// Static interval tree over rectangle x-extents.  Built once over an
/// immutable rectangle set; intersecting() reports the indices of all
/// rectangles whose *closed* extent intersects a closed query box, in
/// ascending index order — the exact candidate set (and order) a linear
/// scan with Rect::intersects produces.
class RectIntervalIndex {
 public:
  RectIntervalIndex() = default;
  explicit RectIntervalIndex(const std::vector<Rect>& rects);

  bool empty() const { return xlo_.empty(); }
  std::size_t size() const { return xlo_.size(); }

  /// Indices (ascending) of rectangles intersecting `query` (closed test).
  std::vector<std::size_t> intersecting(const Rect& query) const;

  /// Allocation-free visitor: calls fn(index) for each rectangle
  /// intersecting `query` once, in tree order (not ascending); fn returns
  /// true to stop early, and visit_any then returns true.  For probes whose
  /// answer does not depend on the order: any-hit tests and minima.
  template <typename Fn>
  bool visit_any(const Rect& query, Fn&& fn) const {
    return walk(root_, query, fn);
  }

 private:
  struct Node {
    double center = 0.0;
    int left = -1, right = -1;
    std::vector<std::size_t> by_xlo;  ///< rects spanning center, xlo ascending
    std::vector<std::size_t> by_xhi;  ///< same rects, xhi descending
  };

  template <typename Fn>
  bool walk(int node_id, const Rect& q, Fn& fn) const {
    while (node_id >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(node_id)];
      auto y_hit = [&](std::size_t i) { return ylo_[i] <= q.yhi && yhi_[i] >= q.ylo; };
      if (q.xhi < node.center) {
        // Only intervals starting at or before q.xhi can reach the query.
        for (const std::size_t i : node.by_xlo) {
          if (xlo_[i] > q.xhi) break;
          if (y_hit(i) && fn(i)) return true;
        }
        node_id = node.left;
      } else if (q.xlo > node.center) {
        for (const std::size_t i : node.by_xhi) {
          if (xhi_[i] < q.xlo) break;
          if (y_hit(i) && fn(i)) return true;
        }
        node_id = node.right;
      } else {
        // The query straddles the center: every spanning interval overlaps
        // in x, and both subtrees may hold hits.
        for (const std::size_t i : node.by_xlo) {
          if (y_hit(i) && fn(i)) return true;
        }
        if (walk(node.left, q, fn)) return true;
        node_id = node.right;
      }
    }
    return false;
  }

  int build_str(std::vector<std::size_t>& by_lo, std::vector<std::size_t>& by_hi);

  // Rect coordinates copied into flat arrays (cache-friendly probes).
  std::vector<double> xlo_, xhi_, ylo_, yhi_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

/// Area of the union of a rectangle set, by Bentley's sweep (Klee's measure
/// problem in 2-D): O(n log n) — sweep x events through a segment tree over
/// compressed y intervals.  Deterministic summation order (ascending x).
double klee_union_area(const std::vector<Rect>& rects);

/// kd-tree over tilted rectangles (DME merge regions) answering exact
/// nearest-region queries under the Manhattan (Chebyshev-in-(u,v)) metric.
///
/// nearest() returns the entry minimizing (TiltedRect::distance, id)
/// lexicographically over all accepted entries — identical to a linear scan
/// that keeps the first strict improvement over ascending ids.  Pruning
/// uses subtree bounding boxes, which lower-bound the gap to every region
/// inside, so no candidate tied with the current best is ever skipped.
class TiltedNnIndex {
 public:
  struct Entry {
    TiltedRect region;
    int id = -1;
  };

  TiltedNnIndex() = default;
  explicit TiltedNnIndex(std::vector<Entry> entries);

  bool empty() const { return entries_.empty(); }

  /// Best accepted entry id for `query`, or -1.  `accept(id)` filters
  /// candidates (self-matches, already-taken items).
  template <typename Accept>
  int nearest(const TiltedRect& query, Accept&& accept) const {
    int best = -1;
    double best_d = 0.0;
    if (root_ >= 0) search(root_, query, accept, best, best_d);
    return best;
  }

 private:
  struct Node {
    TiltedRect bbox;          ///< bounds of every region in the subtree
    int left = -1, right = -1;
    std::size_t begin = 0, end = 0;  ///< leaf: entry range [begin, end)
  };

  int build(std::size_t begin, std::size_t end);

  template <typename Accept>
  void search(int node_id, const TiltedRect& query, Accept&& accept,
              int& best, double& best_d) const {
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.left < 0) {  // leaf bucket
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const Entry& e = entries_[i];
        if (!accept(e.id)) continue;
        const double d = query.distance(e.region);
        if (best < 0 || d < best_d || (d == best_d && e.id < best)) {
          best = e.id;
          best_d = d;
        }
      }
      return;
    }
    const Node& l = nodes_[static_cast<std::size_t>(node.left)];
    const Node& r = nodes_[static_cast<std::size_t>(node.right)];
    const double dl = query.distance(l.bbox);
    const double dr = query.distance(r.bbox);
    // Visit the nearer side first; descend whenever the bound does not
    // strictly exceed the best distance (ties must still be explored to
    // find the smallest id among equal-distance candidates).
    const int first = dl <= dr ? node.left : node.right;
    const int second = dl <= dr ? node.right : node.left;
    const double d_first = dl <= dr ? dl : dr;
    const double d_second = dl <= dr ? dr : dl;
    if (best < 0 || d_first <= best_d) {
      search(first, query, accept, best, best_d);
    }
    if (best < 0 || d_second <= best_d) {
      search(second, query, accept, best, best_d);
    }
  }

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace contango
