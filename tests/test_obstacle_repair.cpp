#include <gtest/gtest.h>

#include "analysis/evaluate.h"
#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/obstacles.h"
#include "netlist/generators.h"

namespace contango {
namespace {

Benchmark bench_with(std::vector<Point> sinks, std::vector<Rect> obstacles) {
  Benchmark b;
  b.name = "obst";
  b.die = Rect{0, 0, 8000, 8000};
  b.source = Point{4000, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e9;
  int i = 0;
  for (const Point& p : sinks) {
    b.sinks.push_back(Sink{"s" + std::to_string(i++), p, 10.0});
  }
  b.obstacle_rects = std::move(obstacles);
  return b;
}

/// All wires legal, or crossing with a small load?
int hard_crossings(const ClockTree& tree, const Benchmark& bench, Ff budget) {
  int count = 0;
  std::vector<Ff> caps;
  for (const Sink& s : bench.sinks) caps.push_back(s.cap);
  const ObstacleSet& obs = bench.obstacles();
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    const TreeNode& n = tree.node(id);
    for (std::size_t i = 1; i < n.route.size(); ++i) {
      if (obs.blocks_segment(HVSegment{n.route[i - 1], n.route[i]})) {
        if (tree.subtree_cap(id, bench.tech, caps) > budget) ++count;
        break;
      }
    }
  }
  return count;
}

TEST(ObstacleRepair, NoObstaclesIsNoop) {
  const Benchmark bench = bench_with({{1000, 3000}, {7000, 3000}}, {});
  ClockTree tree = build_zst(bench);
  const Um before = tree.total_wirelength();
  const ObstacleRepairReport report = repair_obstacles(tree, bench);
  EXPECT_EQ(report.l_flips + report.maze_reroutes + report.contour_detours, 0);
  EXPECT_DOUBLE_EQ(tree.total_wirelength(), before);
}

TEST(ObstacleRepair, LFlipFixesElbowCrossing) {
  // A wire from (0,0)-ish to the far corner whose default HV elbow crosses
  // the block, while the VH elbow is clear.
  Benchmark bench = bench_with({{3500, 3500}}, {Rect{4200, 200, 6000, 2000}});
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);  // (4000, 0)
  // Default HV route: (4000,0) -> (5000,0) -> (5000,3000): crosses.
  const NodeId sink = tree.add_child(root, NodeKind::kSink, {5000, 3000},
                                     {{4000, 0}, {5000, 0}, {5000, 3000}});
  tree.node(sink).sink_index = 0;
  bench.sinks[0].position = Point{5000, 3000};

  ObstacleRepairOptions options;
  options.slew_free_cap = 10.0;  // force repair (tiny budget)
  const ObstacleRepairReport report = repair_obstacles(tree, bench, options);
  EXPECT_GE(report.l_flips + report.maze_reroutes, 1);
  EXPECT_TRUE(obstacle_legal(tree, bench, 10.0));
}

TEST(ObstacleRepair, SmallSubtreeCrossingKept) {
  // One light sink behind a small block: a single buffer can drive across,
  // so the route is kept (paper step 2).
  Benchmark bench = bench_with({{4000, 3000}}, {Rect{3800, 1000, 4200, 1400}});
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId sink = tree.add_child(root, NodeKind::kSink, {4000, 3000},
                                     {{4000, 0}, {4000, 3000}});
  tree.node(sink).sink_index = 0;

  ObstacleRepairOptions options;
  options.slew_free_cap = 10000.0;
  options.max_crossing_um = 800.0;
  const ObstacleRepairReport report = repair_obstacles(tree, bench, options);
  EXPECT_GE(report.kept_crossings, 1);
  EXPECT_EQ(report.maze_reroutes + report.contour_detours, 0);
}

TEST(ObstacleRepair, HeavyCrossingRerouted) {
  // Same geometry, but a tiny slew budget forces the detour.
  Benchmark bench = bench_with({{4000, 3000}}, {Rect{3800, 1000, 4200, 1400}});
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId sink = tree.add_child(root, NodeKind::kSink, {4000, 3000},
                                     {{4000, 0}, {4000, 3000}});
  tree.node(sink).sink_index = 0;

  ObstacleRepairOptions options;
  options.slew_free_cap = 1.0;
  const ObstacleRepairReport report = repair_obstacles(tree, bench, options);
  EXPECT_GE(report.maze_reroutes, 1);
  EXPECT_EQ(hard_crossings(tree, bench, 1.0), 0);
  EXPECT_GT(report.added_wirelength, 0.0);
}

TEST(ObstacleRepair, UnroutableCrossingIsAFailedRouteNotAKeptOne) {
  // The sink sits in a pocket closed by four overlapping bars, so no legal
  // route reaches it; its heavy crossing stays, counted as a failed route.
  Benchmark bench = bench_with({{4000, 4000}}, {Rect{3600, 3600, 3700, 4400},
                                                Rect{4300, 3600, 4400, 4400},
                                                Rect{3600, 3600, 4400, 3700},
                                                Rect{3600, 4300, 4400, 4400}});
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId sink = tree.add_child(root, NodeKind::kSink, {4000, 4000},
                                     {{4000, 0}, {4000, 4000}});
  tree.node(sink).sink_index = 0;
  const std::vector<Point> route = tree.node(sink).route;

  ObstacleRepairOptions options;
  options.slew_free_cap = 1.0;
  const ObstacleRepairReport report = repair_obstacles(tree, bench, options);
  EXPECT_EQ(report.failed_routes, 1);
  EXPECT_EQ(report.kept_crossings, 0);
  EXPECT_EQ(report.l_flips + report.maze_reroutes + report.contour_detours, 0);
  EXPECT_EQ(tree.node(sink).route, route);
  EXPECT_EQ(report.added_wirelength, 0.0);
}

TEST(ObstacleRepair, EnclosedBranchDetouredAlongContour) {
  // A branch node strictly inside a big obstacle with two sinks outside:
  // the detour must relocate the branch onto the contour, keep the sinks,
  // and preserve tree validity.
  Benchmark bench = bench_with({{1000, 5000}, {7000, 5000}},
                               {Rect{2500, 2500, 5500, 5500}});
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId branch = tree.add_child(root, NodeKind::kInternal, {4000, 4000},
                                       {{4000, 0}, {4000, 4000}});
  const NodeId s0 = tree.add_child(branch, NodeKind::kSink, {1000, 5000});
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(branch, NodeKind::kSink, {7000, 5000});
  tree.node(s1).sink_index = 1;

  ObstacleRepairOptions options;
  options.slew_free_cap = 50.0;  // too much load for a single buffer
  const ObstacleRepairReport report = repair_obstacles(tree, bench, options);
  EXPECT_GE(report.contour_detours, 1);
  tree.validate();
  // Both sinks still present and reachable.
  EXPECT_EQ(tree.downstream_sinks(tree.root()).size(), 2u);
  // No node remains strictly inside the obstacle.
  const ObstacleSet& obs = bench.obstacles();
  for (NodeId id : tree.topological_order()) {
    EXPECT_FALSE(obs.blocks_point(tree.node(id).pos))
        << "node " << id << " inside obstacle";
  }
  EXPECT_EQ(hard_crossings(tree, bench, 50.0), 0);
}

TEST(ObstacleRepair, SuiteTreesEndLegal) {
  for (int i : {0, 3, 6}) {
    const Benchmark bench = generate_ispd_like(ispd09_suite_params(i));
    ClockTree tree = build_zst(bench);
    ObstacleRepairOptions options;
    options.slew_free_cap = slew_free_cap(bench.tech, CompositeBuffer{0, 8}, 0.68);
    repair_obstacles(tree, bench, options);
    tree.validate();
    EXPECT_EQ(tree.downstream_sinks(tree.root()).size(), bench.sinks.size())
        << bench.name;
    EXPECT_TRUE(obstacle_legal(tree, bench, options.slew_free_cap)) << bench.name;
    // No internal node left strictly inside any blockage.
    const ObstacleSet& obs = bench.obstacles();
    for (NodeId id : tree.topological_order()) {
      EXPECT_FALSE(obs.blocks_point(tree.node(id).pos)) << bench.name;
    }
  }
}

TEST(ObstacleRepair, DetourPrefersSourceSideOfContour) {
  // Paper Fig. 2 property: the removed contour segment is the one furthest
  // from the source, so every detoured connection reaches the source along
  // the shorter contour side.  With the obstacle directly above the source
  // and one sink behind it, the kept path must wrap around the nearer
  // flank, not the far one: total length stays below one full perimeter.
  Benchmark bench = bench_with({{4000, 6000}}, {Rect{3000, 2000, 5000, 5000}});
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId mid = tree.add_child(root, NodeKind::kInternal, {4000, 3500},
                                    {{4000, 0}, {4000, 3500}});
  const NodeId sink = tree.add_child(mid, NodeKind::kSink, {4000, 6000});
  tree.node(sink).sink_index = 0;

  ObstacleRepairOptions options;
  options.slew_free_cap = 1.0;  // force the detour
  repair_obstacles(tree, bench, options);
  tree.validate();
  const Um path = tree.path_length(tree.downstream_sinks(tree.root()).front());
  // Direct distance is 6000; the short way around the 2000x3000 block adds
  // at most ~2x2000; the long way would add > 4000 more.
  EXPECT_LT(path, 6000.0 + 2.0 * 2000.0 + 500.0);
}

}  // namespace
}  // namespace contango
