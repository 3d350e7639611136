// Obstacle-avoidance walkthrough (paper section IV-A, Fig. 2): builds a
// hand-crafted scene per repair mechanism — L-shape flipping, maze
// rerouting, single-buffer crossings, and the contour detour — runs the
// repair pass on each, and reports what happened.

#include <cstdio>
#include <exception>

#include "cts/obstacles.h"
#include "io/svg.h"
#include "netlist/generators.h"
#include "util/log.h"

using namespace contango;

namespace {

Benchmark scene(std::vector<Point> sinks, std::vector<Rect> rects) {
  Benchmark b;
  b.name = "scene";
  b.die = Rect{0, 0, 6000, 6000};
  b.source = Point{3000, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e9;
  int i = 0;
  for (const Point& p : sinks) b.sinks.push_back(Sink{"s" + std::to_string(i++), p, 10.0});
  b.obstacle_rects = std::move(rects);
  return b;
}

void report(const char* title, const ObstacleRepairReport& r, const ClockTree& tree,
            const Benchmark& bench) {
  bool legal = true;
  const ObstacleSet& obs = bench.obstacles();
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    const TreeNode& n = tree.node(id);
    for (std::size_t i = 1; i < n.route.size(); ++i) {
      if (obs.blocks_segment(HVSegment{n.route[i - 1], n.route[i]}) &&
          tree.subtree_cap(id, bench.tech, {10.0, 10.0, 10.0, 10.0}) > 200.0) {
        legal = false;
      }
    }
  }
  std::printf("%-28s l-flips %d  maze %d  detours %d  kept %d  (+%.0f um)  %s\n",
              title, r.l_flips, r.maze_reroutes, r.contour_detours,
              r.kept_crossings, r.added_wirelength, legal ? "ok" : "VIOLATION");
}

}  // namespace

int main() {
  try {
    Log::level_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("== obstacle-avoidance mechanisms (paper section IV-A) ==\n\n");

  {  // 1. L-shape flip: the alternative elbow dodges the block.
    Benchmark b = scene({{4800, 2800}}, {Rect{3600, 300, 4400, 2200}});
    ClockTree t;
    const NodeId root = t.add_source(b.source);
    const NodeId s = t.add_child(root, NodeKind::kSink, {4800, 2800},
                                 {{3000, 0}, {4800, 0}, {4800, 2800}});
    t.node(s).sink_index = 0;
    // The HV route at x=4800 is legal; build the VH one that crosses.
    t.reroute_edge(s, {{3000, 0}, {3000, 1000}, {4000, 1000}, {4000, 2800}, {4800, 2800}});
    auto r = repair_obstacles(t, b);
    report("1. L-shape flip", r, t, b);
  }
  {  // 2. Maze reroute around a tall wall.
    Benchmark b = scene({{3000, 4000}}, {Rect{2000, 1000, 4000, 3000}});
    ClockTree t;
    const NodeId root = t.add_source(b.source);
    const NodeId s = t.add_child(root, NodeKind::kSink, {3000, 4000},
                                 {{3000, 0}, {3000, 4000}});
    t.node(s).sink_index = 0;
    ObstacleRepairOptions o;
    o.slew_free_cap = 100.0;  // too much wire beyond the block for one buffer
    auto r = repair_obstacles(t, b, o);
    report("2. maze reroute", r, t, b);
  }
  {  // 3. Light crossing kept: one buffer drives over the thin macro.
    Benchmark b = scene({{3000, 2000}}, {Rect{2800, 1000, 3200, 1300}});
    ClockTree t;
    const NodeId root = t.add_source(b.source);
    const NodeId s = t.add_child(root, NodeKind::kSink, {3000, 2000},
                                 {{3000, 0}, {3000, 2000}});
    t.node(s).sink_index = 0;
    ObstacleRepairOptions o;
    o.slew_free_cap = 2000.0;  // strong driver: the thin crossing is fine
    auto r = repair_obstacles(t, b, o);
    report("3. kept crossing", r, t, b);
  }
  {  // 4. Contour detour of an enclosed subtree (Fig. 2).
    Benchmark b = scene({{1000, 4500}, {5000, 4500}, {5200, 2000}},
                        {Rect{2000, 1500, 4000, 4000}, Rect{4000, 1500, 5000, 2600}});
    ClockTree t;
    const NodeId root = t.add_source(b.source);
    const NodeId hub = t.add_child(root, NodeKind::kInternal, {3000, 2500},
                                   {{3000, 0}, {3000, 2500}});
    const NodeId inner = t.add_child(hub, NodeKind::kInternal, {3500, 3000});
    const NodeId s0 = t.add_child(inner, NodeKind::kSink, {1000, 4500});
    t.node(s0).sink_index = 0;
    const NodeId s1 = t.add_child(inner, NodeKind::kSink, {5000, 4500});
    t.node(s1).sink_index = 1;
    const NodeId s2 = t.add_child(hub, NodeKind::kSink, {5200, 2000});
    t.node(s2).sink_index = 2;
    ObstacleRepairOptions o;
    o.slew_free_cap = 50.0;
    auto r = repair_obstacles(t, b, o);
    report("4. contour detour", r, t, b);
    SvgOptions svg;
    svg.color_by_slack = false;
    write_svg_file("detour_demo.svg", b, t, {}, svg);
    std::printf("\n   scene 4 written to detour_demo.svg\n");
  }
  return 0;
}
