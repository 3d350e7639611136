#include "geom/maze.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

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
  for (const std::size_t i : obstacles_.rects_intersecting(window)) {
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
      const Point a{xs[ix], ys[iy]};
      const Point b{xs[jx], ys[jy]};
      if (obstacles_.blocks_segment(HVSegment{a, b})) continue;
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

}  // namespace contango
