#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"
#include "util/rng.h"

namespace contango {
namespace {

Benchmark line_bench(Um length, int n_sinks = 1) {
  Benchmark b;
  b.name = "line";
  b.die = Rect{0, 0, length + 100.0, 500.0};
  b.source = Point{0, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e9;
  for (int i = 0; i < n_sinks; ++i) {
    b.sinks.push_back(Sink{"s" + std::to_string(i),
                           Point{length, i * 400.0 / std::max(1, n_sinks - 1)},
                           10.0});
  }
  if (n_sinks == 1) b.sinks[0].position = Point{length, 0};
  return b;
}

ClockTree line_tree(const Benchmark& bench) {
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId s = tree.add_child(root, NodeKind::kSink, bench.sinks[0].position);
  tree.node(s).sink_index = 0;
  tree.node(s).wire_width = 1;
  return tree;
}

TEST(VanGinneken, LongLineGetsRepeaters) {
  const Benchmark bench = line_bench(8000.0);
  ClockTree tree = line_tree(bench);
  const auto result = insert_buffers(tree, bench, CompositeBuffer{0, 8});
  tree.validate();
  // An 8 mm unbuffered line massively violates slew; the DP must insert a
  // chain of repeaters.
  EXPECT_GE(result.buffers_inserted, 3);
}

TEST(VanGinneken, ShortLineNeedsNothing) {
  const Benchmark bench = line_bench(120.0);
  ClockTree tree = line_tree(bench);
  const auto result = insert_buffers(tree, bench, CompositeBuffer{0, 8});
  EXPECT_EQ(result.buffers_inserted, 0);
}

TEST(VanGinneken, ImprovesDelayOverUnbuffered) {
  const Benchmark bench = line_bench(8000.0);
  ClockTree plain = line_tree(bench);
  ClockTree buffered = plain;
  insert_buffers(buffered, bench, CompositeBuffer{0, 8});

  Evaluator eval(bench);
  const EvalResult before = eval.evaluate(plain);
  const EvalResult after = eval.evaluate(buffered);
  EXPECT_LT(after.max_latency, before.max_latency);
  EXPECT_LT(after.worst_slew, before.worst_slew);
  EXPECT_FALSE(after.slew_violation);
}

TEST(VanGinneken, SlewLegalOnIspdLikeTree) {
  // Obstacles removed: un-legalized ZST wires crossing macros have no
  // buffer sites, which is the job of the obstacle-repair pass (tested in
  // the flow integration tests), not of buffer insertion.
  Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  bench.obstacle_rects.clear();
  bench.invalidate_obstacles();
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  tree.validate();

  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.all_sinks_reached);
  EXPECT_FALSE(r.slew_violation)
      << "worst slew " << r.worst_slew << " vs limit " << bench.tech.slew_limit;
}

TEST(VanGinneken, BuffersAvoidObstacles) {
  Benchmark bench = line_bench(8000.0);
  // Big blockage across the middle of the line.
  bench.obstacle_rects.push_back(Rect{2000, -100, 6000, 100});
  bench.invalidate_obstacles();
  ClockTree tree = line_tree(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_buffer()) {
      EXPECT_FALSE(bench.obstacles().blocks_point(tree.node(id).pos))
          << "buffer inside obstacle at " << tree.node(id).pos;
    }
  }
}

TEST(VanGinneken, StrongerCompositeFewerStages) {
  const Benchmark bench = line_bench(9000.0);
  ClockTree weak_tree = line_tree(bench);
  ClockTree strong_tree = line_tree(bench);
  const auto weak = insert_buffers(weak_tree, bench, CompositeBuffer{0, 4});
  const auto strong = insert_buffers(strong_tree, bench, CompositeBuffer{0, 16});
  // A stronger composite drives more cap per stage: no more buffers needed
  // than the weak one uses.
  EXPECT_LE(strong.buffers_inserted, weak.buffers_inserted);
}

/// The (cap, q) Pareto front of `options`: cap ascending, q strictly
/// increasing, compared exactly.
std::vector<std::pair<Ff, Ps>> pareto_front(const detail::DpOptionList& options) {
  std::vector<std::pair<Ff, Ps>> points;
  for (const detail::DpOption& o : options) points.emplace_back(o.cap, o.q);
  std::sort(points.begin(), points.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  });
  std::vector<std::pair<Ff, Ps>> front;
  for (const auto& p : points) {
    if (front.empty() || p.second > front.back().second) front.push_back(p);
  }
  return front;
}

/// A random option list pruned to its Pareto front, as the DP hands it to
/// a merge.  `grid` rounds cap and q to integers so that ties occur.
detail::DpOptionList random_pruned_options(Rng& rng, bool grid) {
  detail::DpOptionList raw(static_cast<std::size_t>(rng.uniform_int(1, 40)));
  for (detail::DpOption& o : raw) {
    o.cap = rng.uniform(0.0, 100.0);
    o.q = rng.uniform(-500.0, 0.0);
    if (grid) {
      o.cap = std::floor(o.cap / 10.0);
      o.q = std::floor(o.q / 50.0);
    }
  }
  detail::DpOptionList pruned;
  for (const auto& [cap, q] : pareto_front(raw)) {
    detail::DpOption o;
    o.cap = cap;
    o.q = q;
    pruned.push_back(o);
  }
  return pruned;
}

// The classic van Ginneken merge takes every pair of child options (cap
// a+b, q = min) and prunes; the two-pointer merge must keep exactly the
// same Pareto front, ties included.
TEST(VanGinneken, MergeFrontEqualsCrossProductFront) {
  Rng rng(29);
  for (int trial = 0; trial < 500; ++trial) {
    const bool grid = trial % 2 == 1;
    const detail::DpOptionList a = random_pruned_options(rng, grid);
    const detail::DpOptionList b = random_pruned_options(rng, grid);
    detail::DpOptionList cross;
    for (const detail::DpOption& x : a) {
      for (const detail::DpOption& y : b) {
        detail::DpOption o;
        o.cap = x.cap + y.cap;
        o.q = std::min(x.q, y.q);
        cross.push_back(o);
      }
    }
    const detail::DpOptionList merged = detail::merge_options(a, b);
    EXPECT_EQ(pareto_front(merged), pareto_front(cross))
        << "trial " << trial << ": " << a.size() << " x " << b.size();
    for (const detail::DpOption& o : merged) {
      ASSERT_GE(o.prev, 0);
      ASSERT_GE(o.prev_b, 0);
      EXPECT_EQ(o.cap, a[static_cast<std::size_t>(o.prev)].cap +
                           b[static_cast<std::size_t>(o.prev_b)].cap);
      EXPECT_EQ(o.q, std::min(a[static_cast<std::size_t>(o.prev)].q,
                              b[static_cast<std::size_t>(o.prev_b)].q));
    }
  }
}

TEST(VanGinneken, BalancedTreeStaysRoughlyBalanced) {
  // On an Elmore-balanced ZST, buffer counts per path track the electrical
  // path length; since snaked paths are longer they take more repeaters,
  // but every path must be buffered and the spread must stay bounded
  // (paper section IV-C: insertion "results in low skew if the initial
  // tree was balanced").
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(0));
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  int min_bufs = 1 << 30, max_bufs = 0;
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_sink()) {
      const int p = tree.inversion_parity(id);
      min_bufs = std::min(min_bufs, p);
      max_bufs = std::max(max_bufs, p);
    }
  }
  EXPECT_GE(min_bufs, 1) << "an unbuffered source-to-sink path survived";
  EXPECT_LE(max_bufs - min_bufs, 12);
}

}  // namespace
}  // namespace contango
