#include "geom/maze.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

namespace contango {

MazeRouter::MazeRouter(const ObstacleSet& obstacles, Rect bounds)
    : obstacles_(obstacles), bounds_(bounds) {}

std::optional<std::vector<Point>> MazeRouter::route(const Point& from,
                                                    const Point& to) const {
  // Straight or L-shaped connections that are already legal short-circuit
  // the grid search.
  if (from == to) return std::vector<Point>{from};
  for (LConfig config : {LConfig::kHV, LConfig::kVH}) {
    bool legal = true;
    for (const HVSegment& seg : l_shape(from, to, config)) {
      if (obstacles_.blocks_segment(seg)) {
        legal = false;
        break;
      }
    }
    if (legal) {
      std::vector<Point> path{from};
      for (const HVSegment& seg : l_shape(from, to, config)) path.push_back(seg.b);
      return path;
    }
  }

  // Expand the search window until a route is found or the window covers
  // the full routing bounds.
  const Rect direct = Rect::around(from, to);
  Um margin = std::max({direct.width(), direct.height(), 10.0});
  for (int attempt = 0; attempt < 4; ++attempt) {
    Rect window = direct.inflated(margin).intersection(bounds_);
    if (attempt == 3) window = bounds_;
    if (auto path = route_in_window(from, to, window)) return path;
    margin *= 4.0;
  }
  return std::nullopt;
}

std::optional<Um> MazeRouter::route_length(const Point& from,
                                           const Point& to) const {
  const auto path = route(from, to);
  if (!path) return std::nullopt;
  return polyline_length(*path);
}

std::optional<std::vector<Point>> MazeRouter::route_in_window(
    const Point& from, const Point& to, const Rect& window) const {
  std::vector<double> xs{from.x, to.x, window.xlo, window.xhi};
  std::vector<double> ys{from.y, to.y, window.ylo, window.yhi};
  // Escape-graph coordinates from the obstacles inside the window only;
  // rects_intersecting returns ascending indices, so the compressed grids
  // (and the routes) do not depend on the index layout.
  const std::vector<std::size_t> inside = obstacles_.rects_intersecting(window);
  for (const std::size_t i : inside) {
    const Rect& r = obstacles_.rects()[i];
    xs.push_back(r.xlo);
    xs.push_back(r.xhi);
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  auto compress = [&](std::vector<double>& v, double lo, double hi) {
    for (double& c : v) c = std::clamp(c, lo, hi);
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  compress(xs, window.xlo, window.xhi);
  compress(ys, window.ylo, window.yhi);

  const int nx = static_cast<int>(xs.size());
  const int ny = static_cast<int>(ys.size());
  const std::size_t n_nodes = static_cast<std::size_t>(nx) * ny;
  auto node_id = [nx](int ix, int iy) {
    return static_cast<std::size_t>(iy) * nx + ix;
  };
  auto locate = [](const std::vector<double>& v, double c) {
    return static_cast<int>(std::lower_bound(v.begin(), v.end(), c) - v.begin());
  };
  const int sx = locate(xs, std::clamp(from.x, window.xlo, window.xhi));
  const int sy = locate(ys, std::clamp(from.y, window.ylo, window.yhi));
  const int tx = locate(xs, std::clamp(to.x, window.xlo, window.xhi));
  const int ty = locate(ys, std::clamp(to.y, window.ylo, window.yhi));
  if (xs[sx] != from.x || ys[sy] != from.y || xs[tx] != to.x || ys[ty] != to.y) {
    return std::nullopt;  // terminal clipped away by the window
  }

  // Every grid edge lies in the window, so the rects inside it are the only
  // ones that can block an edge.
  const BlockedEdges blocked = mark_blocked_edges(xs, ys, obstacles_.rects(), inside);

  constexpr double kInf = std::numeric_limits<double>::max();
  std::vector<double> dist(n_nodes, kInf);
  std::vector<int> prev(n_nodes, -1);
  using QEntry = std::pair<double, std::size_t>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  dist[node_id(sx, sy)] = 0.0;
  queue.push({0.0, node_id(sx, sy)});

  const int dix[4] = {1, -1, 0, 0};
  const int diy[4] = {0, 0, 1, -1};
  while (!queue.empty()) {
    const auto [d, id] = queue.top();
    queue.pop();
    if (d > dist[id]) continue;
    const int ix = static_cast<int>(id % nx);
    const int iy = static_cast<int>(id / nx);
    if (ix == tx && iy == ty) break;
    for (int k = 0; k < 4; ++k) {
      const int jx = ix + dix[k];
      const int jy = iy + diy[k];
      if (jx < 0 || jx >= nx || jy < 0 || jy >= ny) continue;
      const bool edge_blocked = k < 2 ? blocked.h[node_id(std::min(ix, jx), iy)]
                                      : blocked.v[node_id(ix, std::min(iy, jy))];
      if (edge_blocked) continue;
      const Point a{xs[ix], ys[iy]};
      const Point b{xs[jx], ys[jy]};
      const std::size_t jd = node_id(jx, jy);
      const double nd = d + manhattan(a, b);
      if (nd < dist[jd] - 1e-12) {
        dist[jd] = nd;
        prev[jd] = static_cast<int>(id);
        queue.push({nd, jd});
      }
    }
  }

  const std::size_t target = node_id(tx, ty);
  if (dist[target] == kInf) return std::nullopt;

  std::vector<Point> path;
  for (int id = static_cast<int>(target); id != -1; id = prev[id]) {
    const int ix = id % nx;
    const int iy = id / nx;
    path.push_back(Point{xs[ix], ys[iy]});
    if (static_cast<std::size_t>(id) == node_id(sx, sy)) break;
  }
  std::reverse(path.begin(), path.end());

  // Merge collinear grid steps into single segments.
  std::vector<Point> simplified;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (simplified.size() >= 2) {
      const Point& a = simplified[simplified.size() - 2];
      const Point& b = simplified.back();
      const Point& c = path[i];
      if ((a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y)) {
        simplified.back() = c;
        continue;
      }
    }
    simplified.push_back(path[i]);
  }
  return simplified;
}

BlockedEdges mark_blocked_edges(const std::vector<double>& xs,
                                const std::vector<double>& ys,
                                const std::vector<Rect>& rects,
                                const std::vector<std::size_t>& candidates) {
  const std::size_t nx = xs.size();
  BlockedEdges out;
  out.h.assign(nx * ys.size(), 0);
  out.v.assign(nx * ys.size(), 0);
  // Grid lines strictly inside (lo, hi), and the edges [i, i + 1] whose
  // open span overlaps (lo, hi): c[i] < hi and c[i + 1] > lo.
  auto strictly_inside = [](const std::vector<double>& c, double lo, double hi) {
    const auto first = std::upper_bound(c.begin(), c.end(), lo) - c.begin();
    const auto last = std::lower_bound(c.begin(), c.end(), hi) - c.begin();
    return std::pair<std::size_t, std::size_t>(first, std::max(first, last));
  };
  auto overlapping_edges = [](const std::vector<double>& c, double lo, double hi) {
    const auto after_lo = std::upper_bound(c.begin(), c.end(), lo) - c.begin();
    const auto before_hi = std::lower_bound(c.begin(), c.end(), hi) - c.begin();
    const std::size_t first = after_lo > 0 ? static_cast<std::size_t>(after_lo - 1) : 0;
    const std::size_t last =
        std::min(static_cast<std::size_t>(before_hi), c.empty() ? 0 : c.size() - 1);
    return std::pair<std::size_t, std::size_t>(first, std::max(first, last));
  };
  for (const std::size_t i : candidates) {
    const Rect& r = rects[i];
    // A horizontal edge at y crosses r when r.ylo < y < r.yhi and its x
    // span overlaps (r.xlo, r.xhi); a vertical one likewise, transposed.
    const auto [row0, row1] = strictly_inside(ys, r.ylo, r.yhi);
    const auto [hx0, hx1] = overlapping_edges(xs, r.xlo, r.xhi);
    for (std::size_t iy = row0; iy < row1; ++iy) {
      std::fill(out.h.begin() + static_cast<std::ptrdiff_t>(iy * nx + hx0),
                out.h.begin() + static_cast<std::ptrdiff_t>(iy * nx + hx1), 1);
    }
    const auto [col0, col1] = strictly_inside(xs, r.xlo, r.xhi);
    const auto [vy0, vy1] = overlapping_edges(ys, r.ylo, r.yhi);
    for (std::size_t iy = vy0; iy < vy1; ++iy) {
      std::fill(out.v.begin() + static_cast<std::ptrdiff_t>(iy * nx + col0),
                out.v.begin() + static_cast<std::ptrdiff_t>(iy * nx + col1), 1);
    }
  }
  return out;
}

}  // namespace contango
