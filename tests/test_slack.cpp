#include <gtest/gtest.h>

#include <limits>

#include "analysis/evaluate.h"
#include "cts/dme.h"
#include "cts/rebalance.h"
#include "cts/slack.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"
#include "util/rng.h"

namespace contango {
namespace {

constexpr double kInf = std::numeric_limits<double>::max();

/// A buffered tree over a small benchmark plus its evaluation.
struct SlackFixture {
  Benchmark bench;
  ClockTree tree;
  EvalResult eval;
};

SlackFixture make_setup(int n_sinks, std::uint64_t seed) {
  SlackFixture s;
  s.bench.name = "slack";
  s.bench.die = Rect{0, 0, 6000, 6000};
  s.bench.source = Point{3000, 0};
  s.bench.tech = ispd09_technology();
  s.bench.tech.cap_limit = 1e9;
  Rng rng(seed);
  for (int i = 0; i < n_sinks; ++i) {
    s.bench.sinks.push_back(Sink{"s" + std::to_string(i),
                                 Point{rng.uniform(200, 5800), rng.uniform(200, 5800)},
                                 rng.uniform(5.0, 30.0)});
  }
  s.tree = build_zst(s.bench);
  insert_buffers(s.tree, s.bench, CompositeBuffer{0, 8});
  Evaluator eval(s.bench);
  s.eval = eval.evaluate(s.tree);
  return s;
}

TEST(Slack, SinkSlacksMatchDefinitionOne) {
  const SlackFixture s = make_setup(12, 3);
  ASSERT_GT(s.eval.corners.size(), 1u);
  const EdgeSlacks slacks = compute_edge_slacks(s.tree, s.eval);

  // Recompute the definition directly per (corner, transition) and take
  // the min.
  for (NodeId id : s.tree.topological_order()) {
    const TreeNode& n = s.tree.node(id);
    if (!n.is_sink()) continue;
    double slow = kInf, fast = kInf;
    for (const CornerTiming& corner : s.eval.corners) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const auto& sinks = corner.sinks[static_cast<std::size_t>(t)];
        double lo = kInf, hi = -kInf;
        for (const SinkTiming& st : sinks) {
          lo = std::min(lo, st.latency);
          hi = std::max(hi, st.latency);
        }
        const SinkTiming& st = sinks[static_cast<std::size_t>(n.sink_index)];
        slow = std::min(slow, hi - st.latency);
        fast = std::min(fast, st.latency - lo);
      }
    }
    EXPECT_NEAR(slacks.slow[id], slow, 1e-9);
    EXPECT_NEAR(slacks.fast[id], fast, 1e-9);
  }
}

TEST(Slack, LemmaOneEdgeSlackIsMinOverDownstreamSinks) {
  const SlackFixture s = make_setup(15, 7);
  const EdgeSlacks slacks = compute_edge_slacks(s.tree, s.eval);
  for (NodeId id : s.tree.topological_order()) {
    if (id == s.tree.root()) continue;
    double expected = kInf;
    for (NodeId sink : s.tree.downstream_sinks(id)) {
      expected = std::min(expected, slacks.slow[sink]);
    }
    if (expected < kInf) {
      EXPECT_NEAR(slacks.slow[id], expected, 1e-9) << "edge " << id;
    }
  }
}

TEST(Slack, LemmaTwoMonotoneAlongPaths) {
  const SlackFixture s = make_setup(20, 11);
  const EdgeSlacks slacks = compute_edge_slacks(s.tree, s.eval);
  for (NodeId id : s.tree.topological_order()) {
    const NodeId parent = s.tree.node(id).parent;
    if (parent == kNoNode || parent == s.tree.root()) continue;
    if (slacks.slow[id] < kInf && slacks.slow[parent] < kInf) {
      EXPECT_GE(slacks.slow[id], slacks.slow[parent] - 1e-9);
      EXPECT_GE(slacks.fast[id], slacks.fast[parent] - 1e-9);
    }
  }
}

TEST(Slack, SomeSinkHasZeroSlowSlackAndSomeZeroFast) {
  const SlackFixture s = make_setup(18, 23);
  const EdgeSlacks slacks = compute_edge_slacks(s.tree, s.eval);
  double min_slow = kInf, min_fast = kInf;
  for (NodeId id : s.tree.topological_order()) {
    if (!s.tree.node(id).is_sink()) continue;
    min_slow = std::min(min_slow, slacks.slow[id]);
    min_fast = std::min(min_fast, slacks.fast[id]);
  }
  // The slowest sink has no slow-down slack; the fastest no speed-up slack.
  EXPECT_NEAR(min_slow, 0.0, 1e-9);
  EXPECT_NEAR(min_fast, 0.0, 1e-9);
}

TEST(Slack, DeltaDecompositionTelescopes) {
  // Proposition 1's bookkeeping: slack(e) = sum of deltas from the root.
  const SlackFixture s = make_setup(16, 31);
  const EdgeSlacks slacks = compute_edge_slacks(s.tree, s.eval);
  for (NodeId id : s.tree.topological_order()) {
    if (!s.tree.node(id).is_sink()) continue;
    double sum = 0.0;
    for (NodeId at = id; at != s.tree.root(); at = s.tree.node(at).parent) {
      sum += slacks.delta_slow[at];
    }
    if (slacks.slow[id] < kInf) {
      EXPECT_NEAR(sum, slacks.slow[id], 1e-6);
    }
  }
}

TEST(Rebalance, PathlengthEqualizesAfterPerturbation) {
  Benchmark bench;
  bench.name = "rb";
  bench.die = Rect{0, 0, 6000, 6000};
  bench.source = Point{3000, 0};
  bench.tech = ispd09_technology();
  bench.tech.cap_limit = 1e9;
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    bench.sinks.push_back(Sink{"s" + std::to_string(i),
                               Point{rng.uniform(200, 5800), rng.uniform(200, 5800)}, 10.0});
  }
  ClockTree tree = build_zst(bench);
  // Perturb: lengthen a few edges as a detour would.
  int poked = 0;
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root() || tree.node(id).is_sink()) continue;
    if (poked++ % 5 == 0) tree.node(id).snake += rng.uniform(100.0, 2000.0);
  }
  const Um added = rebalance_pathlength(tree);
  EXPECT_GT(added, 0.0);
  double lo = kInf, hi = 0.0;
  for (NodeId id : tree.topological_order()) {
    if (!tree.node(id).is_sink()) continue;
    const Um len = tree.path_length(id);
    lo = std::min(lo, len);
    hi = std::max(hi, len);
  }
  EXPECT_LT(hi - lo, 1e-6 * hi + 1e-6);
}

TEST(Rebalance, PathlengthNoopOnBalancedTree) {
  Benchmark bench;
  bench.name = "rb2";
  bench.die = Rect{0, 0, 6000, 6000};
  bench.source = Point{3000, 0};
  bench.tech = ispd09_technology();
  bench.tech.cap_limit = 1e9;
  for (int i = 0; i < 9; ++i) {
    bench.sinks.push_back(Sink{"s" + std::to_string(i),
                               Point{500.0 + 600.0 * i, 3000.0}, 10.0});
  }
  ClockTree tree = build_zst(bench);
  EXPECT_NEAR(rebalance_pathlength(tree), 0.0, 1e-6);
}

}  // namespace
}  // namespace contango
