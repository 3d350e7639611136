#include "geom/obstacle_set.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace contango {
namespace {

/// Disjoint-set forest for grouping abutting rectangles.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

int direction_index(const Point& from, const Point& to) {
  if (to.x > from.x) return 0;  // +x
  if (to.y > from.y) return 1;  // +y
  if (to.x < from.x) return 2;  // -x
  return 3;                     // -y
}

}  // namespace

ObstacleSet::ObstacleSet(std::vector<Rect> rects)
    : rects_(std::move(rects)) {
  for (const Rect& r : rects_) {
    if (!r.valid()) throw std::invalid_argument("ObstacleSet: invalid rect");
  }
  index_ = RectIntervalIndex(rects_);
  union_area_ = klee_union_area(rects_);
  build_groups();
  build_contours();
}

std::vector<std::size_t> ObstacleSet::rects_intersecting(
    const Rect& window) const {
  return index_.intersecting(window);
}

void ObstacleSet::build_groups() {
  UnionFind uf(rects_.size());
  for (std::size_t i = 0; i < rects_.size(); ++i) {
    index_.visit_any(rects_[i], [&](std::size_t j) {
      if (j > i &&
          (rects_[i].overlaps_interior(rects_[j]) || rects_[i].abuts(rects_[j]))) {
        uf.unite(i, j);
      }
      return false;
    });
  }
  std::map<std::size_t, std::size_t> root_to_compound;
  rect_to_compound_.assign(rects_.size(), 0);
  for (std::size_t i = 0; i < rects_.size(); ++i) {
    const std::size_t root = uf.find(i);
    auto [it, inserted] = root_to_compound.try_emplace(root, compounds_.size());
    if (inserted) {
      compounds_.push_back(CompoundObstacle{});
      compounds_.back().bounds = rects_[i];
    }
    CompoundObstacle& c = compounds_[it->second];
    c.rect_indices.push_back(i);
    c.bounds = c.bounds.bounding_union(rects_[i]);
    rect_to_compound_[i] = it->second;
  }
}

void ObstacleSet::build_contours() {
  for (CompoundObstacle& c : compounds_) {
    std::vector<Rect> members;
    members.reserve(c.rect_indices.size());
    for (std::size_t i : c.rect_indices) members.push_back(rects_[i]);
    c.contour = union_contour(members);
  }
}

bool ObstacleSet::blocks_point(const Point& p) const {
  const Rect probe{p.x, p.y, p.x, p.y};
  return index_.visit_any(
      probe, [&](std::size_t i) { return rects_[i].contains_strict(p); });
}

bool ObstacleSet::blocks_segment(const HVSegment& seg) const {
  return index_.visit_any(seg.bounds(), [&](std::size_t i) {
    return seg.crosses_interior(rects_[i]);
  });
}

std::vector<std::size_t> ObstacleSet::crossed_compounds(const HVSegment& seg) const {
  std::vector<std::size_t> out;
  index_.visit_any(seg.bounds(), [&](std::size_t i) {
    if (seg.crosses_interior(rects_[i])) out.push_back(rect_to_compound_[i]);
    return false;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ObstacleSet::blocks_polyline(const std::vector<Point>& pts) const {
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (blocks_segment(HVSegment{pts[i - 1], pts[i]})) return true;
  }
  return false;
}

Um ObstacleSet::blocked_length(const HVSegment& seg) const {
  Um total = 0.0;
  // Terms accumulate in ascending rect-index order, and non-intersecting
  // rects would add exactly 0.0, so the sum equals a full scan's.
  for (const std::size_t i : index_.intersecting(seg.bounds())) {
    const Rect& r = rects_[i];
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

Um ObstacleSet::blocked_length(const std::vector<Point>& pts) const {
  Um total = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    total += blocked_length(HVSegment{pts[i - 1], pts[i]});
  }
  return total;
}

std::size_t ObstacleSet::compound_containing(const Point& p) const {
  // The lowest-index containing rect wins, as in a scan; the walk visits
  // candidates in tree order, so it keeps the minimum.
  const Rect probe{p.x, p.y, p.x, p.y};
  std::size_t lowest = npos;
  index_.visit_any(probe, [&](std::size_t i) {
    if (i < lowest && rects_[i].contains_strict(p)) lowest = i;
    return false;
  });
  return lowest == npos ? npos : rect_to_compound_[lowest];
}

std::vector<Point> union_contour(const std::vector<Rect>& rects) {
  if (rects.empty()) return {};

  // Coordinate compression: every rect corner coordinate becomes a grid line.
  std::vector<double> xs, ys;
  for (const Rect& r : rects) {
    xs.push_back(r.xlo);
    xs.push_back(r.xhi);
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  const int nx = static_cast<int>(xs.size()) - 1;
  const int ny = static_cast<int>(ys.size()) - 1;
  if (nx <= 0 || ny <= 0) return {};

  // A compressed cell is blocked iff its center lies inside some rect;
  // because grid lines pass through every rect boundary, each cell is
  // entirely inside or entirely outside the union.
  std::vector<char> blocked(static_cast<std::size_t>(nx) * ny, 0);
  auto cell = [&](int i, int j) -> char& {
    return blocked[static_cast<std::size_t>(j) * nx + i];
  };
  for (const Rect& r : rects) {
    const auto i0 = std::lower_bound(xs.begin(), xs.end(), r.xlo) - xs.begin();
    const auto i1 = std::lower_bound(xs.begin(), xs.end(), r.xhi) - xs.begin();
    const auto j0 = std::lower_bound(ys.begin(), ys.end(), r.ylo) - ys.begin();
    const auto j1 = std::lower_bound(ys.begin(), ys.end(), r.yhi) - ys.begin();
    for (auto i = i0; i < i1; ++i) {
      for (auto j = j0; j < j1; ++j) cell(static_cast<int>(i), static_cast<int>(j)) = 1;
    }
  }

  // Emit directed boundary edges with the blocked interior on the left.
  struct DirEdge {
    Point from, to;
  };
  std::vector<DirEdge> edges;
  auto is_blocked = [&](int i, int j) {
    return i >= 0 && i < nx && j >= 0 && j < ny && cell(i, j) != 0;
  };
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      if (!cell(i, j)) continue;
      const Point bl{xs[i], ys[j]}, br{xs[i + 1], ys[j]};
      const Point tl{xs[i], ys[j + 1]}, tr{xs[i + 1], ys[j + 1]};
      if (!is_blocked(i, j - 1)) edges.push_back({bl, br});  // bottom, +x
      if (!is_blocked(i + 1, j)) edges.push_back({br, tr});  // right, +y
      if (!is_blocked(i, j + 1)) edges.push_back({tr, tl});  // top, -x
      if (!is_blocked(i - 1, j)) edges.push_back({tl, bl});  // left, -y
    }
  }

  // Chain edges into closed loops.  At pinch vertices (two diagonal lobes
  // meeting at a point) prefer the rightmost turn so the walk stays on the
  // outer face.
  std::map<std::pair<double, double>, std::vector<std::size_t>> by_start;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    by_start[{edges[e].from.x, edges[e].from.y}].push_back(e);
  }
  std::vector<char> used(edges.size(), 0);
  std::vector<std::vector<Point>> loops;
  for (std::size_t start = 0; start < edges.size(); ++start) {
    if (used[start]) continue;
    std::vector<Point> loop;
    std::size_t e = start;
    while (!used[e]) {
      used[e] = 1;
      loop.push_back(edges[e].from);
      const Point& at = edges[e].to;
      const auto it = by_start.find({at.x, at.y});
      if (it == by_start.end()) break;
      const int in_dir = direction_index(edges[e].from, edges[e].to);
      std::size_t next = static_cast<std::size_t>(-1);
      // Turn preference relative to incoming direction: right, straight,
      // left (never back).
      for (int turn : {3, 0, 1}) {
        const int want = (in_dir + turn) % 4;
        for (std::size_t cand : it->second) {
          if (used[cand]) continue;
          if (direction_index(edges[cand].from, edges[cand].to) == want) {
            next = cand;
            break;
          }
        }
        if (next != static_cast<std::size_t>(-1)) break;
      }
      if (next == static_cast<std::size_t>(-1)) break;
      e = next;
    }
    if (loop.size() >= 4) loops.push_back(std::move(loop));
  }

  if (loops.empty()) return {};

  // The outer contour is the loop with the largest enclosed area.
  auto shoelace = [](const std::vector<Point>& poly) {
    double a = 0.0;
    for (std::size_t i = 0; i < poly.size(); ++i) {
      const Point& p = poly[i];
      const Point& q = poly[(i + 1) % poly.size()];
      a += p.x * q.y - q.x * p.y;
    }
    return a / 2.0;
  };
  std::size_t best = 0;
  double best_area = std::abs(shoelace(loops[0]));
  for (std::size_t i = 1; i < loops.size(); ++i) {
    const double a = std::abs(shoelace(loops[i]));
    if (a > best_area) {
      best = i;
      best_area = a;
    }
  }
  std::vector<Point> contour = std::move(loops[best]);

  // Merge collinear runs of vertices.
  std::vector<Point> simplified;
  const std::size_t n = contour.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& prev = contour[(i + n - 1) % n];
    const Point& cur = contour[i];
    const Point& next = contour[(i + 1) % n];
    const bool collinear = (prev.x == cur.x && cur.x == next.x) ||
                           (prev.y == cur.y && cur.y == next.y);
    if (!collinear) simplified.push_back(cur);
  }
  return simplified;
}

Um contour_length(const std::vector<Point>& contour) {
  if (contour.size() < 2) return 0.0;
  Um total = 0.0;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    total += manhattan(contour[i], contour[(i + 1) % contour.size()]);
  }
  return total;
}

Um contour_project(const std::vector<Point>& contour, const Point& p,
                   Point* snapped) {
  Um best_dist = std::numeric_limits<double>::max();
  Um best_s = 0.0;
  Point best_point{};
  Um s = 0.0;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    const Point& a = contour[i];
    const Point& b = contour[(i + 1) % contour.size()];
    const Rect box = Rect::around(a, b);
    const Point q = box.clamp(p);
    const Um d = manhattan(p, q);
    if (d < best_dist) {
      best_dist = d;
      best_point = q;
      best_s = s + manhattan(a, q);
    }
    s += manhattan(a, b);
  }
  if (snapped != nullptr) *snapped = best_point;
  return best_s;
}

Point contour_at(const std::vector<Point>& contour, Um s) {
  const Um total = contour_length(contour);
  if (total <= 0.0) return contour.empty() ? Point{} : contour.front();
  s = std::fmod(s, total);
  if (s < 0.0) s += total;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    const Point& a = contour[i];
    const Point& b = contour[(i + 1) % contour.size()];
    const Um seg = manhattan(a, b);
    if (s <= seg && seg > 0.0) {
      const double t = s / seg;
      return Point{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
    }
    s -= seg;
  }
  return contour.front();
}

std::vector<Point> contour_walk(const std::vector<Point>& contour, Um s0,
                                Um s1) {
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
  // Walk forward over every vertex strictly between s0 and s1.
  Um s = 0.0;
  std::vector<std::pair<Um, Point>> vertices;
  for (std::size_t i = 0; i < contour.size(); ++i) {
    vertices.emplace_back(s, contour[i]);
    s += manhattan(contour[i], contour[(i + 1) % contour.size()]);
  }
  const Um span = norm(s1 - s0);
  // Sorted sweep: order the in-window vertices by forward arc distance from
  // s0 once, then append them in order (skipping near-duplicates of points
  // already on the path).  This emits exactly the sequence the former
  // repeated-minimum selection produced, in O(V log V) instead of O(V^2):
  // arc positions are pairwise distinct, so ascending-fwd order is the
  // order successive minima were picked in.
  std::vector<std::pair<Um, Point>> in_window;
  for (const auto& [vs, vp] : vertices) {
    const Um fwd = norm(vs - s0);
    if (fwd > 1e-9 && fwd < span - 1e-9) in_window.emplace_back(fwd, vp);
  }
  std::stable_sort(in_window.begin(), in_window.end(),
                   [](const std::pair<Um, Point>& a,
                      const std::pair<Um, Point>& b) { return a.first < b.first; });
  for (const auto& [fwd, vp] : in_window) {
    bool already = false;
    for (std::size_t j = 1; j < path.size(); ++j) {
      if (near(path[j], vp)) already = true;
    }
    if (!already) path.push_back(vp);
  }
  path.push_back(contour_at(contour, s1));
  // Drop zero-length lead/tail duplicates.
  std::vector<Point> cleaned;
  for (const Point& p : path) {
    if (cleaned.empty() || !near(cleaned.back(), p)) cleaned.push_back(p);
  }
  return cleaned;
}

}  // namespace contango
