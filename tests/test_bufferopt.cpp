#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "analysis/evaluate.h"
#include "cts/bufferopt.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "cts/wiresizing.h"
#include "cts/wiresnaking.h"
#include "cts/slack.h"
#include "netlist/generators.h"
#include "util/rng.h"

namespace contango {
namespace {

Benchmark small_bench(int n, std::uint64_t seed) {
  Benchmark b;
  b.name = "bo";
  b.die = Rect{0, 0, 8000, 8000};
  b.source = Point{4000, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e9;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    b.sinks.push_back(Sink{"s" + std::to_string(i),
                           Point{rng.uniform(500, 7500), rng.uniform(2000, 7500)},
                           10.0});
  }
  return b;
}

TEST(Trunk, FindTrunkOnChain) {
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId b1 = tree.add_child(root, NodeKind::kBuffer, {500, 0});
  tree.node(b1).buffer = CompositeBuffer{0, 8};
  const NodeId mid = tree.add_child(b1, NodeKind::kInternal, {1000, 0});
  const NodeId s0 = tree.add_child(mid, NodeKind::kSink, {1500, 500});
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(mid, NodeKind::kSink, {1500, -500});
  tree.node(s1).sink_index = 1;

  const TrunkInfo trunk = find_trunk(tree);
  EXPECT_EQ(trunk.path.back(), mid);
  ASSERT_EQ(trunk.buffers.size(), 1u);
  EXPECT_EQ(trunk.buffers[0], b1);
  EXPECT_DOUBLE_EQ(trunk.length, 1000.0);
}

TEST(Trunk, SlideAndInterleaveRespacesEvenly) {
  const Benchmark bench = small_bench(10, 3);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  const int sinks_before = static_cast<int>(tree.downstream_sinks(tree.root()).size());
  const std::vector<int> parity_before = [&] {
    std::vector<int> p;
    for (NodeId id : tree.topological_order()) {
      if (tree.node(id).is_sink()) p.push_back(tree.inversion_parity(id) % 2);
    }
    return p;
  }();

  const int count = slide_and_interleave_trunk(tree, bench, CompositeBuffer{0, 8}, 1000.0);
  tree.validate();
  EXPECT_GE(count, 1);
  EXPECT_EQ(static_cast<int>(tree.downstream_sinks(tree.root()).size()), sinks_before);

  // Polarity of every sink preserved.
  std::vector<int> parity_after;
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_sink()) parity_after.push_back(tree.inversion_parity(id) % 2);
  }
  EXPECT_EQ(parity_before, parity_after);

  // Buffers evenly spaced: no trunk span exceeds ~trunk_length/(count+1)*2.
  const TrunkInfo trunk = find_trunk(tree);
  EXPECT_EQ(static_cast<int>(trunk.buffers.size()), count);
}

TEST(Trunk, UpsizeIncreasesCounts) {
  const Benchmark bench = small_bench(10, 5);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  const TrunkInfo before = find_trunk(tree);
  if (before.buffers.empty()) GTEST_SKIP() << "no trunk buffers on this instance";
  std::vector<int> counts;
  for (NodeId b : before.buffers) counts.push_back(tree.node(b).buffer.count);
  TreeEditSession session(tree);
  const int changed = upsize_trunk_buffers(session, 0.25);
  EXPECT_EQ(changed, static_cast<int>(before.buffers.size()));
  for (std::size_t i = 0; i < before.buffers.size(); ++i) {
    EXPECT_GT(tree.node(before.buffers[i]).buffer.count, counts[i]);
  }
}

TEST(Trunk, DownsizeBottomBuffersNeverBelowOne) {
  const Benchmark bench = small_bench(12, 7);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 2});
  TreeEditSession session(tree);
  downsize_bottom_buffers(session, 5);
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_buffer()) {
      EXPECT_GE(tree.node(id).buffer.count, 1);
    }
  }
}

TEST(Equalize, AllSinksReachSameDepth) {
  const Benchmark bench = small_bench(25, 11);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  int lo = 1 << 30, hi = 0;
  for (NodeId id : tree.topological_order()) {
    if (!tree.node(id).is_sink()) continue;
    lo = std::min(lo, tree.inversion_parity(id));
    hi = std::max(hi, tree.inversion_parity(id));
  }
  const int added = equalize_stage_counts(tree, bench, CompositeBuffer{0, 8});
  tree.validate();
  if (hi > lo) {
    EXPECT_GT(added, 0);
  }
  int depth = -1;
  for (NodeId id : tree.topological_order()) {
    if (!tree.node(id).is_sink()) continue;
    const int p = tree.inversion_parity(id);
    if (depth < 0) depth = p;
    EXPECT_EQ(p, depth) << "unequal stage count at sink node " << id;
  }
  EXPECT_EQ(depth, hi);  // topped up to the deepest path
}

TEST(Equalize, NoopWhenAlreadyEqual) {
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId b = tree.add_child(root, NodeKind::kBuffer, {500, 0});
  tree.node(b).buffer = CompositeBuffer{0, 8};
  const NodeId mid = tree.add_child(b, NodeKind::kInternal, {1000, 0});
  for (int i = 0; i < 2; ++i) {
    const NodeId s = tree.add_child(mid, NodeKind::kSink, {1500.0, 300.0 * (i + 1)});
    tree.node(s).sink_index = i;
  }
  Benchmark bench = small_bench(2, 13);
  EXPECT_EQ(equalize_stage_counts(tree, bench, CompositeBuffer{0, 8}), 0);
}

TEST(Equalize, SharedDeficitPaidOnce) {
  // Two sinks under a common branch, both one stage short vs a third deep
  // path: the shared edge gets a single buffer, not one per sink.
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  // Deep path: two buffers.
  NodeId deep = tree.add_child(root, NodeKind::kInternal, {0, 2000});
  NodeId sd = tree.add_child(deep, NodeKind::kSink, {0, 4000});
  tree.node(sd).sink_index = 0;
  tree.insert_buffer(sd, 500.0, CompositeBuffer{0, 8});
  tree.insert_buffer(deep, 500.0, CompositeBuffer{0, 8});
  // Shallow pair: one buffer on the shared prefix.
  NodeId shallow = tree.add_child(root, NodeKind::kInternal, {2000, 2000});
  const NodeId s1 = tree.add_child(shallow, NodeKind::kSink, {3000, 3000});
  tree.node(s1).sink_index = 1;
  const NodeId s2 = tree.add_child(shallow, NodeKind::kSink, {3000, 1000});
  tree.node(s2).sink_index = 2;
  tree.insert_buffer(shallow, 500.0, CompositeBuffer{0, 8});

  Benchmark bench = small_bench(3, 17);
  const int added = equalize_stage_counts(tree, bench, CompositeBuffer{0, 8});
  EXPECT_EQ(added, 1);  // one buffer on the shared shallow prefix
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_sink()) {
      EXPECT_EQ(tree.inversion_parity(id), 2);
    }
  }
}

/// A calibration probe over `tree`: the edit is applied through a session,
/// evaluated in full and rolled back.
EditProbe probe_on(ClockTree& tree, Evaluator& eval) {
  return [&tree, &eval](const std::function<void(TreeEditSession&)>& edit) {
    TreeEditSession session(tree);
    edit(session);
    const EvalResult probed = eval.evaluate(tree);
    session.rollback();
    return probed;
  };
}

TEST(Rounds, WiresizingConsumesOnlyAvailableSlack) {
  const Benchmark bench = small_bench(20, 19);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  Evaluator eval(bench);
  const EvalResult before = eval.evaluate(tree);
  WireSizingParams params;
  params.tws_per_um = calibrate_tws(tree, probe_on(tree, eval), before);
  if (params.tws_per_um <= 0.0) GTEST_SKIP() << "nothing to calibrate";
  const EdgeSlacks slacks = compute_edge_slacks(tree, before);
  TreeEditSession session(tree);
  const int changed = wiresizing_round(session, slacks, params);
  EXPECT_GT(changed, 0);
  const EvalResult after = eval.evaluate(tree);
  // The slowest sink was protected (zero slack): max latency unchanged
  // within the linear model's error, while skew improves or holds.
  EXPECT_LT(after.nominal_skew, before.nominal_skew * 1.1 + 1.0);
}

TEST(Rounds, SnakingSlowsOnlySlackedSinks) {
  const Benchmark bench = small_bench(20, 29);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  Evaluator eval(bench);
  const EvalResult before = eval.evaluate(tree);
  WireSnakingParams params;
  params.twn_per_unit =
      calibrate_twn(tree, probe_on(tree, eval), before, params.unit);
  if (params.twn_per_unit <= 0.0) GTEST_SKIP();
  const EdgeSlacks slacks = compute_edge_slacks(tree, before);
  TreeEditSession session(tree);
  const int changed = wiresnaking_round(session, slacks, params);
  EXPECT_GT(changed, 0);
  const EvalResult after = eval.evaluate(tree);
  EXPECT_LT(after.nominal_skew, before.nominal_skew);
}

}  // namespace
}  // namespace contango
