// Differential test harness of the spatial-index geometry engine
// (geom/spatial.h, geom/obstacle_set.h): every index answer must equal a
// test-local linear scan *exactly* — same booleans, same indices in the
// same order, same floating-point bits — because the flow's results are
// defined by the scan semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "geom/maze.h"
#include "geom/obstacle_set.h"
#include "geom/spatial.h"
#include "util/rng.h"

namespace contango {
namespace {

/// Random rectangle with integer corners in [0, coord_max]^2 so that
/// boundary-touching, abutting and exactly-colinear configurations occur
/// with high probability.  min_dim 0 admits degenerate segment/point rects.
Rect random_rect(Rng& rng, long coord_max, long min_dim) {
  const long x0 = rng.uniform_int(0, coord_max - min_dim);
  const long y0 = rng.uniform_int(0, coord_max - min_dim);
  const long w = rng.uniform_int(min_dim, std::min(coord_max - x0, coord_max / 3));
  const long h = rng.uniform_int(min_dim, std::min(coord_max - y0, coord_max / 3));
  return Rect{static_cast<Um>(x0), static_cast<Um>(y0),
              static_cast<Um>(x0 + w), static_cast<Um>(y0 + h)};
}

/// Query coordinate biased toward the "interesting" values: rectangle edge
/// coordinates (boundary-touching probes) and their midpoints.
double random_coord(Rng& rng, const std::vector<Rect>& rects, long coord_max) {
  if (!rects.empty() && rng.unit() < 0.6) {
    const Rect& r = rects[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long>(rects.size()) - 1))];
    switch (rng.uniform_int(0, 5)) {
      case 0: return r.xlo;
      case 1: return r.xhi;
      case 2: return r.ylo;
      case 3: return r.yhi;
      case 4: return (r.xlo + r.xhi) / 2.0;
      default: return (r.ylo + r.yhi) / 2.0;
    }
  }
  return static_cast<double>(rng.uniform_int(0, coord_max));
}

HVSegment random_segment(Rng& rng, const std::vector<Rect>& rects,
                         long coord_max) {
  const double c0 = random_coord(rng, rects, coord_max);
  const double c1 = random_coord(rng, rects, coord_max);
  const double fixed = random_coord(rng, rects, coord_max);
  // Mix horizontal, vertical and zero-length segments.
  switch (rng.uniform_int(0, 4)) {
    case 0: return HVSegment{Point{c0, fixed}, Point{c1, fixed}};
    case 1: return HVSegment{Point{c1, fixed}, Point{c0, fixed}};
    case 2: return HVSegment{Point{fixed, c0}, Point{fixed, c1}};
    case 3: return HVSegment{Point{fixed, c1}, Point{fixed, c0}};
    default: return HVSegment{Point{c0, fixed}, Point{c0, fixed}};  // zero-length
  }
}

// ---------------------------------------------------------------------------
// RectIntervalIndex vs. a plain Rect::intersects scan (raw index layer).
// ---------------------------------------------------------------------------

/// Indices (ascending) of the rects intersecting `query`, by plain scan.
std::vector<std::size_t> scan_intersecting(const std::vector<Rect>& rects,
                                           const Rect& query) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    if (rects[i].intersects(query)) out.push_back(i);
  }
  return out;
}

TEST(SpatialDifferential, IntervalIndexMatchesLinearScan) {
  Rng rng(20260808);
  int cases = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    std::vector<Rect> rects;
    for (int i = 0; i < n; ++i) {
      // Degenerate (zero-width / zero-height) rects are legal Rects; the
      // index must agree with the scan on them too.
      rects.push_back(random_rect(rng, 20, rng.unit() < 0.2 ? 0 : 1));
    }
    // Exact duplicates stress the ascending-order contract.
    if (n > 0 && rng.unit() < 0.5) rects.push_back(rects[0]);
    const RectIntervalIndex index(rects);
    ASSERT_EQ(index.size(), rects.size());

    for (int q = 0; q < 20; ++q, ++cases) {
      const Rect query = Rect::around(
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)},
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)});
      EXPECT_EQ(index.intersecting(query), scan_intersecting(rects, query))
          << "trial " << trial << " query " << q;
    }
  }
  EXPECT_GE(cases, 1000);
}

// The STR bulk build (sort once, partition stably) on inputs engineered to
// hit duplicates, shared endpoints and the degenerate-split guard.
TEST(SpatialDifferential, StrBulkBuildMatchesLinearScan) {
  Rng rng(20260809);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 60));
    std::vector<Rect> rects;
    for (int i = 0; i < n; ++i) {
      rects.push_back(random_rect(rng, 12, rng.unit() < 0.3 ? 0 : 1));
    }
    // Heavy duplication: identical rects share every endpoint, which is
    // exactly what trips the all-spanning / one-sided degenerate split.
    if (n > 0) {
      const int dups = static_cast<int>(rng.uniform_int(0, 5));
      for (int d = 0; d < dups; ++d) {
        rects.push_back(rects[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<long>(rects.size()) - 1))]);
      }
    }
    const RectIntervalIndex bulk(rects);
    ASSERT_EQ(bulk.size(), rects.size());

    for (int q = 0; q < 30; ++q) {
      const Rect query = Rect::around(
          Point{random_coord(rng, rects, 12), random_coord(rng, rects, 12)},
          Point{random_coord(rng, rects, 12), random_coord(rng, rects, 12)});
      EXPECT_EQ(bulk.intersecting(query), scan_intersecting(rects, query))
          << "trial " << trial << " query " << q;
    }
  }
}

// A single point interval set (all four coordinates equal across rects)
// forces the degenerate guard on the very first node.
TEST(SpatialDifferential, StrBulkBuildHandlesAllIdenticalRects) {
  const std::vector<Rect> rects(17, Rect{3.0, 4.0, 3.0, 4.0});
  const RectIntervalIndex bulk(rects);
  std::vector<std::size_t> all(rects.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  EXPECT_EQ(bulk.intersecting(Rect{0, 0, 10, 10}), all);
  EXPECT_EQ(bulk.intersecting(Rect{3, 4, 3, 4}),
            scan_intersecting(rects, Rect{3, 4, 3, 4}));
  EXPECT_TRUE(bulk.intersecting(Rect{5, 5, 6, 6}).empty());
}

// ---------------------------------------------------------------------------
// ObstacleSet: every public query vs. a brute-force scan over rects().
// ---------------------------------------------------------------------------

/// Brute-force model of ObstacleSet: every query scans all rectangles in
/// ascending index order, and compounds come from an all-pairs grouping.
class ScanObstacles {
 public:
  explicit ScanObstacles(const std::vector<Rect>& rects) : rects_(rects) {
    std::vector<std::size_t> root(rects.size());
    for (std::size_t i = 0; i < root.size(); ++i) root[i] = i;
    const auto find = [&](std::size_t x) {
      while (root[x] != x) x = root[x];
      return x;
    };
    for (std::size_t i = 0; i < rects.size(); ++i) {
      for (std::size_t j = i + 1; j < rects.size(); ++j) {
        if (rects[i].overlaps_interior(rects[j]) || rects[i].abuts(rects[j])) {
          root[find(i)] = find(j);
        }
      }
    }
    // Compounds are numbered by their lowest member rectangle.
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      const std::size_t r = find(i);
      const auto it = std::find(roots.begin(), roots.end(), r);
      compound_.push_back(static_cast<std::size_t>(it - roots.begin()));
      if (it == roots.end()) {
        roots.push_back(r);
        members_.emplace_back();
      }
      members_[compound_.back()].push_back(i);
    }
  }

  const std::vector<std::vector<std::size_t>>& members() const { return members_; }
  std::size_t compound_of(std::size_t i) const { return compound_[i]; }

  bool blocks_point(const Point& p) const {
    return compound_containing(p) != ObstacleSet::npos;
  }
  std::size_t compound_containing(const Point& p) const {
    for (std::size_t i = 0; i < rects_.size(); ++i) {
      if (rects_[i].contains_strict(p)) return compound_[i];
    }
    return ObstacleSet::npos;
  }
  bool blocks_segment(const HVSegment& seg) const {
    for (const Rect& r : rects_) {
      if (seg.crosses_interior(r)) return true;
    }
    return false;
  }
  std::vector<std::size_t> crossed_compounds(const HVSegment& seg) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < rects_.size(); ++i) {
      if (seg.crosses_interior(rects_[i]) &&
          std::find(out.begin(), out.end(), compound_[i]) == out.end()) {
        out.push_back(compound_[i]);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  Um blocked_length(const HVSegment& seg) const {
    Um total = 0.0;
    for (const Rect& r : rects_) {
      const Rect clip = seg.bounds().intersection(r);
      if (!clip.valid()) continue;
      if (seg.horizontal()) {
        if (seg.a.y > r.ylo && seg.a.y < r.yhi) total += std::max(0.0, clip.width());
      } else if (seg.vertical()) {
        if (seg.a.x > r.xlo && seg.a.x < r.xhi) total += std::max(0.0, clip.height());
      }
    }
    return total;
  }
  bool blocks_polyline(const std::vector<Point>& pts) const {
    for (std::size_t i = 1; i < pts.size(); ++i) {
      if (blocks_segment(HVSegment{pts[i - 1], pts[i]})) return true;
    }
    return false;
  }
  Um blocked_length(const std::vector<Point>& pts) const {
    Um total = 0.0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      total += blocked_length(HVSegment{pts[i - 1], pts[i]});
    }
    return total;
  }

 private:
  const std::vector<Rect>& rects_;
  std::vector<std::size_t> compound_;
  std::vector<std::vector<std::size_t>> members_;
};

TEST(SpatialDifferential, ObstacleQueriesIndexEqualsScan) {
  Rng rng(42);
  int cases = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 24));
    std::vector<Rect> rects;
    for (int i = 0; i < n; ++i) rects.push_back(random_rect(rng, 20, 1));
    const ObstacleSet indexed(rects);
    const ScanObstacles scan(indexed.rects());

    // Construction-time grouping: same compounds, same member lists, same
    // bounds and contours, same rect->compound map.
    ASSERT_EQ(indexed.compounds().size(), scan.members().size());
    for (std::size_t c = 0; c < scan.members().size(); ++c) {
      const CompoundObstacle& got = indexed.compounds()[c];
      EXPECT_EQ(got.rect_indices, scan.members()[c]);
      std::vector<Rect> member_rects;
      Rect bounds = rects[scan.members()[c].front()];
      for (const std::size_t i : scan.members()[c]) {
        member_rects.push_back(rects[i]);
        bounds = bounds.bounding_union(rects[i]);
      }
      EXPECT_EQ(got.bounds, bounds);
      EXPECT_EQ(got.contour, union_contour(member_rects));
    }
    for (std::size_t i = 0; i < rects.size(); ++i) {
      EXPECT_EQ(indexed.compound_of(i), scan.compound_of(i));
    }
    EXPECT_EQ(indexed.union_area(), klee_union_area(rects));

    for (int q = 0; q < 8; ++q, ++cases) {  // point queries
      const Point p{random_coord(rng, rects, 20), random_coord(rng, rects, 20)};
      EXPECT_EQ(indexed.blocks_point(p), scan.blocks_point(p));
      EXPECT_EQ(indexed.compound_containing(p), scan.compound_containing(p));
    }
    for (int q = 0; q < 8; ++q, ++cases) {  // segment queries
      const HVSegment seg = random_segment(rng, rects, 20);
      EXPECT_EQ(indexed.blocks_segment(seg), scan.blocks_segment(seg));
      // Exact FP equality: the index skips only rects that add exactly 0.0.
      EXPECT_EQ(indexed.blocked_length(seg), scan.blocked_length(seg));
      EXPECT_EQ(indexed.crossed_compounds(seg), scan.crossed_compounds(seg));
    }
    for (int q = 0; q < 2; ++q, ++cases) {  // rectilinear polylines
      std::vector<Point> pts{
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)}};
      for (int leg = 0; leg < 3; ++leg) {
        Point next = pts.back();
        if (leg % 2 == 0) next.x = random_coord(rng, rects, 20);
        else next.y = random_coord(rng, rects, 20);
        pts.push_back(next);  // may include zero-length / colinear legs
      }
      EXPECT_EQ(indexed.blocks_polyline(pts), scan.blocks_polyline(pts));
      EXPECT_EQ(indexed.blocked_length(pts), scan.blocked_length(pts));
    }
    for (int q = 0; q < 4; ++q, ++cases) {  // window queries (maze router)
      const Rect window = Rect::around(
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)},
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)});
      EXPECT_EQ(indexed.rects_intersecting(window),
                scan_intersecting(rects, window));
    }
  }
  EXPECT_GE(cases, 1000);
}

// The allocation-free walk behind the boolean probes: each hit once, in
// any order, and a true from the visitor stops it at the first hit.
TEST(SpatialDifferential, VisitAnyReportsEachHitOnceAndStopsEarly) {
  Rng rng(20261020);
  for (int trial = 0; trial < 80; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    std::vector<Rect> rects;
    for (int i = 0; i < n; ++i) {
      rects.push_back(random_rect(rng, 20, rng.unit() < 0.2 ? 0 : 1));
    }
    if (n > 0 && rng.unit() < 0.5) rects.push_back(rects[0]);
    const RectIntervalIndex index(rects);
    for (int q = 0; q < 20; ++q) {
      const Rect query = Rect::around(
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)},
          Point{random_coord(rng, rects, 20), random_coord(rng, rects, 20)});
      std::vector<std::size_t> seen;
      EXPECT_FALSE(index.visit_any(query, [&](std::size_t i) {
        seen.push_back(i);
        return false;
      }));
      std::sort(seen.begin(), seen.end());
      EXPECT_EQ(seen, scan_intersecting(rects, query)) << "trial " << trial;

      int calls = 0;
      const bool stopped = index.visit_any(query, [&](std::size_t) {
        ++calls;
        return true;
      });
      EXPECT_EQ(stopped, !seen.empty());
      EXPECT_EQ(calls, seen.empty() ? 0 : 1);
    }
  }
}

// The maze router marks blocked escape-graph edges once per window; every
// mark must equal blocks_segment on that edge, for grids whose lines are
// obstacle edges (clamped to the window, as the router builds them) mixed
// with unrelated coordinates, and for obstacles reaching past the window.
TEST(SpatialDifferential, MarkedMazeEdgesEqualBlocksSegment) {
  Rng rng(20261021);
  long edges = 0, blocked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 20));
    std::vector<Rect> rects;
    for (int i = 0; i < n; ++i) rects.push_back(random_rect(rng, 30, 1));
    if (n > 0 && rng.unit() < 0.3) {  // a fractional rect off the integer grid
      Rect r = rects.back();
      r.xhi += 0.25;
      r.ylo += 0.5;
      rects.back() = r;
    }
    const ObstacleSet obstacles(rects);
    const Rect window = Rect::around(
        Point{random_coord(rng, rects, 30), random_coord(rng, rects, 30)},
        Point{random_coord(rng, rects, 30) + 1.0, random_coord(rng, rects, 30) + 1.0});
    const std::vector<std::size_t> inside = obstacles.rects_intersecting(window);

    std::vector<double> xs{window.xlo, window.xhi}, ys{window.ylo, window.yhi};
    for (const std::size_t i : inside) {
      xs.push_back(std::clamp(rects[i].xlo, window.xlo, window.xhi));
      xs.push_back(std::clamp(rects[i].xhi, window.xlo, window.xhi));
      ys.push_back(std::clamp(rects[i].ylo, window.ylo, window.yhi));
      ys.push_back(std::clamp(rects[i].yhi, window.ylo, window.yhi));
    }
    for (int k = 0; k < 3; ++k) {
      xs.push_back(std::clamp(random_coord(rng, rects, 30), window.xlo, window.xhi));
      ys.push_back(std::clamp(random_coord(rng, rects, 30), window.ylo, window.yhi));
    }
    for (std::vector<double>* v : {&xs, &ys}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }

    const BlockedEdges marks = mark_blocked_edges(xs, ys, obstacles.rects(), inside);
    const std::size_t nx = xs.size();
    ASSERT_EQ(marks.h.size(), nx * ys.size());
    ASSERT_EQ(marks.v.size(), nx * ys.size());
    for (std::size_t iy = 0; iy < ys.size(); ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const Point a{xs[ix], ys[iy]};
        if (ix + 1 < nx) {
          const bool want = obstacles.blocks_segment(HVSegment{a, Point{xs[ix + 1], ys[iy]}});
          EXPECT_EQ(marks.h[iy * nx + ix] != 0, want) << "trial " << trial;
          ++edges;
          blocked += want;
        }
        if (iy + 1 < ys.size()) {
          const bool want = obstacles.blocks_segment(HVSegment{a, Point{xs[ix], ys[iy + 1]}});
          EXPECT_EQ(marks.v[iy * nx + ix] != 0, want) << "trial " << trial;
          ++edges;
          blocked += want;
        }
      }
    }
  }
  // Both verdicts occur often enough to mean something.
  EXPECT_GT(edges, 10000);
  EXPECT_GT(blocked, edges / 20);
  EXPECT_LT(blocked, edges / 2);
}

TEST(SpatialProperties, BlockedLengthBoundedOnDisjointSets) {
  // blocked_length documents possible double counting on *overlapping*
  // rects; on interior-disjoint sets it is a true sublength of the segment.
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Rect> rects;  // disjoint interiors: one rect per grid cell
    for (long cx = 0; cx < 4; ++cx) {
      for (long cy = 0; cy < 4; ++cy) {
        if (rng.unit() < 0.5) continue;
        const double x0 = 5.0 * static_cast<double>(cx);
        const double y0 = 5.0 * static_cast<double>(cy);
        rects.push_back(Rect{x0, y0, x0 + rng.uniform(1.0, 5.0),
                             y0 + rng.uniform(1.0, 5.0)});
      }
    }
    const ObstacleSet obs(rects);
    for (int q = 0; q < 25; ++q) {
      const HVSegment seg = random_segment(rng, rects, 20);
      const Um blocked = obs.blocked_length(seg);
      EXPECT_GE(blocked, 0.0);
      EXPECT_LE(blocked, seg.length() + 1e-9);
      if (blocked > 0.0) EXPECT_TRUE(obs.blocks_segment(seg));
    }
  }
}

// ---------------------------------------------------------------------------
// Klee union-area sweep.
// ---------------------------------------------------------------------------

TEST(SpatialProperties, KleeUnionAreaMatchesCellCountingOnIntegerRects) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    std::vector<Rect> rects;
    for (int i = 0; i < n; ++i) rects.push_back(random_rect(rng, 20, 0));
    // Integer corners: the union area is exactly the number of covered unit
    // cells, countable by brute force.
    double cells = 0.0;
    for (long x = 0; x < 20; ++x) {
      for (long y = 0; y < 20; ++y) {
        const Rect cell{static_cast<Um>(x), static_cast<Um>(y),
                        static_cast<Um>(x + 1), static_cast<Um>(y + 1)};
        for (const Rect& r : rects) {
          if (r.overlaps_interior(cell)) {
            cells += 1.0;
            break;
          }
        }
      }
    }
    const double area = klee_union_area(rects);
    EXPECT_DOUBLE_EQ(area, cells) << "trial " << trial;

    double sum = 0.0, largest = 0.0;
    for (const Rect& r : rects) {
      sum += r.area();
      largest = std::max(largest, r.area());
    }
    EXPECT_LE(area, sum + 1e-9);
    EXPECT_GE(area, largest - 1e-9);
  }
}

TEST(SpatialProperties, KleeUnionAreaEdgeCases) {
  EXPECT_EQ(klee_union_area({}), 0.0);
  EXPECT_EQ(klee_union_area({Rect{3, 4, 3, 9}}), 0.0);  // degenerate
  // Disjoint rects: union area equals the sum of areas.
  EXPECT_DOUBLE_EQ(klee_union_area({Rect{0, 0, 2, 3}, Rect{5, 5, 9, 6}}), 10.0);
  // Abutting rects share no area: still the sum.
  EXPECT_DOUBLE_EQ(klee_union_area({Rect{0, 0, 2, 2}, Rect{2, 0, 4, 2}}), 8.0);
  // A duplicate contributes nothing.
  EXPECT_DOUBLE_EQ(klee_union_area({Rect{0, 0, 2, 2}, Rect{0, 0, 2, 2}}), 4.0);
  // Nested rects: the outer one wins.
  EXPECT_DOUBLE_EQ(klee_union_area({Rect{0, 0, 10, 10}, Rect{2, 2, 4, 4}}), 100.0);
}

// ---------------------------------------------------------------------------
// Nearest-neighbour structures: exact (distance, id) argmin equality.
// ---------------------------------------------------------------------------

TEST(SpatialNn, TiltedKdTreeMatchesLinearScan) {
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 80));
    std::vector<TiltedNnIndex::Entry> entries;
    for (int i = 0; i < n; ++i) {
      // Regions mirror DME merge regions: points, segments and inflated
      // rectangles in tilted space; exact duplicates force distance ties.
      TiltedRect region =
          (i > 0 && rng.unit() < 0.15)
              ? entries[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<long>(entries.size()) - 1))]
                    .region
              : TiltedRect::from_point(Point{rng.uniform(0.0, 100.0),
                                             rng.uniform(0.0, 100.0)})
                    .inflated(rng.unit() < 0.5 ? 0.0 : rng.uniform(0.0, 10.0));
      entries.push_back({region, i});
    }
    const TiltedNnIndex index(entries);

    std::vector<char> accepted(static_cast<std::size_t>(n), 1);
    for (int i = 0; i < n; ++i) {
      accepted[static_cast<std::size_t>(i)] = rng.unit() < 0.7 ? 1 : 0;
    }
    auto accept = [&](int id) { return accepted[static_cast<std::size_t>(id)] != 0; };

    for (int q = 0; q < 25; ++q) {
      const TiltedRect query =
          rng.unit() < 0.3
              ? entries[static_cast<std::size_t>(
                            rng.uniform_int(0, n - 1))].region
              : TiltedRect::from_point(
                    Point{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
      // Reference: first-wins strict-improvement scan over ascending ids.
      int best = -1;
      double best_d = 0.0;
      for (const auto& e : entries) {
        if (!accept(e.id)) continue;
        const double d = query.distance(e.region);
        if (best < 0 || d < best_d) {
          best = e.id;
          best_d = d;
        }
      }
      EXPECT_EQ(index.nearest(query, accept), best)
          << "trial " << trial << " query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// contour_walk: the O(V log V) sorted sweep vs. the former O(V^2)
// repeated-minimum reference.
// ---------------------------------------------------------------------------

/// Reference implementation: successively pick the not-yet-emitted contour
/// vertex with the smallest forward arc distance inside (s0, s1).
std::vector<Point> contour_walk_reference(const std::vector<Point>& contour,
                                          Um s0, Um s1) {
  const Um total = contour_length(contour);
  std::vector<Point> path;
  if (total <= 0.0) return path;
  auto norm = [&](Um s) {
    s = std::fmod(s, total);
    return s < 0.0 ? s + total : s;
  };
  s0 = norm(s0);
  s1 = norm(s1);
  path.push_back(contour_at(contour, s0));
  const Um span = norm(s1 - s0);
  Um s = 0.0;
  std::vector<std::pair<Um, Point>> vertices;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    vertices.emplace_back(norm(s - s0), contour[i]);
    s += manhattan(contour[i], contour[(i + 1) % contour.size()]);
  }
  Um last = 0.0;
  for (;;) {
    const std::pair<Um, Point>* next = nullptr;
    for (const auto& v : vertices) {
      if (v.first <= last || v.first <= 1e-9 || v.first >= span - 1e-9) continue;
      if (next == nullptr || v.first < next->first) next = &v;
    }
    if (next == nullptr) break;
    last = next->first;
    bool already = false;
    for (std::size_t j = 1; j < path.size(); ++j) {
      if (near(path[j], next->second)) already = true;
    }
    if (!already) path.push_back(next->second);
  }
  path.push_back(contour_at(contour, s1));
  std::vector<Point> cleaned;
  for (const Point& p : path) {
    if (cleaned.empty() || !near(cleaned.back(), p)) cleaned.push_back(p);
  }
  return cleaned;
}

TEST(ContourWalk, SweepMatchesRepeatedMinimumReference) {
  Rng rng(31337);
  int compounds_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Rect> rects;
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    for (int i = 0; i < n; ++i) rects.push_back(random_rect(rng, 20, 1));
    const ObstacleSet obs(rects);
    for (const CompoundObstacle& compound : obs.compounds()) {
      ++compounds_seen;
      const Um total = contour_length(compound.contour);
      for (int q = 0; q < 8; ++q) {
        const Um s0 = rng.uniform(-total, 2.0 * total);  // wraps both ways
        const Um s1 = q == 0 ? s0 : rng.uniform(-total, 2.0 * total);
        const auto walk = contour_walk(compound.contour, s0, s1);
        EXPECT_EQ(walk, contour_walk_reference(compound.contour, s0, s1))
            << "trial " << trial << " s0=" << s0 << " s1=" << s1;
        // Every interior waypoint is a contour vertex; the walk length
        // equals the forward arc span (up to dedup tolerance).
        for (std::size_t j = 1; j + 1 < walk.size(); ++j) {
          EXPECT_NE(std::find_if(compound.contour.begin(),
                                 compound.contour.end(),
                                 [&](const Point& v) { return near(v, walk[j]); }),
                    compound.contour.end());
        }
      }
    }
  }
  EXPECT_GT(compounds_seen, 20);
}

}  // namespace
}  // namespace contango
