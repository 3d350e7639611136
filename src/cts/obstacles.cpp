#include "cts/obstacles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geom/maze.h"
#include "util/log.h"

namespace contango {
namespace {

std::vector<Ff> sink_cap_table(const Benchmark& bench) {
  std::vector<Ff> caps;
  caps.reserve(bench.sinks.size());
  for (const Sink& s : bench.sinks) caps.push_back(s.cap);
  return caps;
}

/// Forward or reversed walk between two arc positions of a contour.
std::vector<Point> path_between(const std::vector<Point>& contour, Um from,
                                Um to, bool forward) {
  if (forward) return contour_walk(contour, from, to);
  std::vector<Point> path = contour_walk(contour, to, from);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Straight-or-L route between two points.
std::vector<Point> simple_route(const Point& a, const Point& b) {
  std::vector<Point> route{a};
  if (a.x != b.x && a.y != b.y) route.push_back(Point{b.x, a.y});
  if (!(a == b)) route.push_back(b);
  return route;
}

}  // namespace

ObstacleRepairReport repair_obstacles(ClockTree& tree, const Benchmark& bench,
                                      const ObstacleRepairOptions& options) {
  ObstacleRepairReport report;
  const ObstacleSet& obs = bench.obstacles();
  if (obs.empty()) return report;
  const std::vector<Ff> sink_caps = sink_cap_table(bench);
  const Um before_wl = tree.total_wirelength();

  // ---- Phase A: subtrees with nodes enclosed by compound obstacles. ----
  // Groups small enough to keep (single-buffer drivable) are remembered by
  // their top node so the scan does not revisit them forever.
  std::vector<char> kept_top(tree.size() * 2 + 16, 0);

  for (bool progress = true; progress;) {
    progress = false;
    NodeId top = kNoNode;
    std::size_t compound = ObstacleSet::npos;
    for (NodeId id : tree.topological_order()) {
      if (id == tree.root() || tree.node(id).is_sink()) continue;
      const std::size_t c = obs.compound_containing(tree.node(id).pos);
      if (c == ObstacleSet::npos) continue;
      // Top of the connected inside-group within this compound.
      NodeId t = id;
      while (t != tree.root()) {
        const NodeId p = tree.node(t).parent;
        if (p == tree.root() ||
            obs.compound_containing(tree.node(p).pos) != c) {
          break;
        }
        t = p;
      }
      if (t < kept_top.size() && kept_top[t]) continue;
      top = t;
      compound = c;
      break;
    }
    if (top == kNoNode) break;

    auto mark_kept = [&](NodeId id) {
      if (id >= kept_top.size()) kept_top.resize(id * 2 + 16, 0);
      kept_top[id] = 1;
    };

    // Paper step 2: small enclosed subtrees stay put — but only when the
    // compound is also narrow enough that the unbuffered run across it
    // stays slew-clean.
    const Rect& bounds = obs.compounds()[compound].bounds;
    const Um crossing_proxy = std::max(bounds.width(), bounds.height());
    const Ff cap = tree.subtree_cap(top, bench.tech, sink_caps);
    if (cap <= options.crossing_cap_factor * options.slew_free_cap &&
        crossing_proxy <= options.max_crossing_um) {
      mark_kept(top);
      ++report.kept_crossings;
      progress = true;
      continue;
    }

    // Paper step 3: contour detour.  Collect the inside-group and its
    // outside attachments.
    const auto& contour = obs.compounds()[compound].contour;
    const Um total = contour_length(contour);
    std::vector<NodeId> inside_group;
    std::vector<NodeId> outside_children;
    bool has_inside_sink = false;
    {
      std::vector<NodeId> stack{top};
      while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        inside_group.push_back(id);
        for (NodeId ch : tree.node(id).children) {
          if (tree.node(ch).is_sink()) {
            if (obs.compound_containing(tree.node(ch).pos) == compound) {
              has_inside_sink = true;
            }
            outside_children.push_back(ch);
          } else if (obs.compound_containing(tree.node(ch).pos) == compound) {
            stack.push_back(ch);
          } else {
            outside_children.push_back(ch);
          }
        }
      }
    }
    if (has_inside_sink || outside_children.empty()) {
      // A sink placed inside a blockage (malformed input) or a childless
      // group: keep the crossing rather than destroy content.
      mark_kept(top);
      ++report.kept_crossings;
      progress = true;
      continue;
    }

    // Anchors on the contour: the source-side entry plus one per child.
    struct Anchor {
      Um arc = 0.0;
      NodeId child = kNoNode;  ///< kNoNode marks the source-side anchor
    };
    const NodeId above = tree.node(top).parent;
    std::vector<Anchor> anchors;
    {
      Point snapped;
      anchors.push_back(Anchor{contour_project(contour, tree.node(above).pos, &snapped), kNoNode});
      for (NodeId ch : outside_children) {
        anchors.push_back(Anchor{contour_project(contour, tree.node(ch).pos, &snapped), ch});
      }
    }
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& a, const Anchor& b) { return a.arc < b.arc; });
    const std::size_t k = anchors.size();
    std::size_t source_idx = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (anchors[i].child == kNoNode) source_idx = i;
    }

    // The anchor furthest from the source along the contour; the arc on its
    // far side (away from its shortest contour path to the source) is the
    // removed segment.
    auto fwd = [&](Um a, Um b) {  // forward distance a -> b
      Um d = std::fmod(b - a, total);
      return d < 0 ? d + total : d;
    };
    const Um s0 = anchors[source_idx].arc;
    std::size_t far_idx = source_idx;
    Um far_dist = -1.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (i == source_idx) continue;
      const Um d = std::min(fwd(s0, anchors[i].arc), fwd(anchors[i].arc, s0));
      if (d > far_dist) {
        far_dist = d;
        far_idx = i;
      }
    }
    // Removed arc: between far_idx and its neighbour opposite the shortest
    // path back to the source.  When there is only the source anchor and
    // one child, either side works and the longer one is removed.
    std::size_t cut_after;  // remove arc between cut_after and cut_after+1
    if (k == 1) {
      cut_after = 0;
    } else if (fwd(anchors[far_idx].arc, s0) <= fwd(s0, anchors[far_idx].arc)) {
      // Shortest path from the far anchor runs forward: keep its forward
      // arc, cut the backward one (between prev and far).
      cut_after = (far_idx + k - 1) % k;
    } else {
      cut_after = far_idx;
    }

    // Build the detour chain: nodes at every anchor, connected along the
    // kept part of the contour.  The chain root is the source anchor.
    std::vector<NodeId> chain(k, kNoNode);
    const Point s0_pos = contour_at(contour, s0);
    chain[source_idx] = tree.add_child(above, NodeKind::kInternal, s0_pos,
                                       simple_route(tree.node(above).pos, s0_pos));
    // Forward from the source anchor until the cut.
    for (std::size_t i = source_idx; i != cut_after && k > 1;) {
      const std::size_t next = (i + 1) % k;
      const Point pos = contour_at(contour, anchors[next].arc);
      chain[next] = tree.add_child(chain[i], NodeKind::kInternal, pos,
                                   path_between(contour, anchors[i].arc, anchors[next].arc, true));
      i = next;
      if (next == cut_after) break;
    }
    // Backward from the source anchor until the other side of the cut.
    for (std::size_t i = source_idx; (i + k - 1) % k != cut_after && k > 1;) {
      const std::size_t prev = (i + k - 1) % k;
      if (chain[prev] != kNoNode) break;  // wrapped around (cut met)
      const Point pos = contour_at(contour, anchors[prev].arc);
      chain[prev] = tree.add_child(chain[i], NodeKind::kInternal, pos,
                                   path_between(contour, anchors[i].arc, anchors[prev].arc, false));
      i = prev;
    }

    // Attach every outside child to its anchor node.
    for (std::size_t i = 0; i < k; ++i) {
      if (anchors[i].child == kNoNode) continue;
      if (chain[i] == kNoNode) {
        throw std::logic_error("repair_obstacles: anchor not reached by chain");
      }
      const Point a = tree.node(chain[i]).pos;
      tree.reparent(anchors[i].child, chain[i],
                    simple_route(a, tree.node(anchors[i].child).pos));
    }
    tree.detach_subtree(top);
    ++report.contour_detours;
    progress = true;
  }

  // ---- Phase B: point-to-point wires crossing obstacles. ----
  MazeRouter router(obs, bench.die);
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    const TreeNode& n = tree.node(id);
    bool crossing = false;
    for (std::size_t i = 1; i < n.route.size(); ++i) {
      if (obs.blocks_segment(HVSegment{n.route[i - 1], n.route[i]})) {
        crossing = true;
        break;
      }
    }
    if (!crossing) continue;

    const Point from = tree.node(n.parent).pos;
    const Point to = n.pos;

    // Endpoints strictly inside an obstacle belong to kept enclosed groups
    // (phase A decided they are single-buffer drivable): leave them be.
    if (obs.blocks_point(from) || obs.blocks_point(to)) {
      ++report.kept_crossings;
      continue;
    }

    // Step 1a: the alternative L configuration.
    bool fixed = false;
    for (LConfig config : {LConfig::kHV, LConfig::kVH}) {
      bool legal = true;
      for (const HVSegment& seg : l_shape(from, to, config)) {
        if (obs.blocks_segment(seg)) {
          legal = false;
          break;
        }
      }
      if (legal) {
        std::vector<Point> route{from};
        for (const HVSegment& seg : l_shape(from, to, config)) route.push_back(seg.b);
        if (route.size() == 1) route.push_back(to);
        tree.reroute_edge(id, std::move(route));
        ++report.l_flips;
        fixed = true;
        break;
      }
    }
    if (fixed) continue;

    // Step 2: small downstream load over a short crossing keeps its route
    // (a buffer placed right before the obstacle can drive across).
    if (tree.subtree_cap(id, bench.tech, sink_caps) <=
            options.crossing_cap_factor * options.slew_free_cap &&
        obs.blocked_length(n.route) <= options.max_crossing_um) {
      ++report.kept_crossings;
      continue;
    }

    // Step 1b: shortest-path maze detour.
    if (auto path = router.route(from, to)) {
      tree.reroute_edge(id, std::move(*path));
      ++report.maze_reroutes;
    } else {
      Log::warn("repair_obstacles: %s: no legal route for node %u; its crossing stays",
                bench.name.c_str(), id);
      ++report.failed_routes;
    }
  }

  report.added_wirelength = tree.total_wirelength() - before_wl;
  tree.validate();
  return report;
}

bool obstacle_legal(const ClockTree& tree, const Benchmark& bench,
                    Ff slew_free_cap) {
  const ObstacleSet& obs = bench.obstacles();
  if (obs.empty()) return true;
  const std::vector<Ff> sink_caps = sink_cap_table(bench);
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    const TreeNode& n = tree.node(id);
    for (std::size_t i = 1; i < n.route.size(); ++i) {
      if (obs.blocks_segment(HVSegment{n.route[i - 1], n.route[i]})) {
        if (tree.subtree_cap(id, bench.tech, sink_caps) > slew_free_cap) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

}  // namespace contango
