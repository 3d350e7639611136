// Edge cases and failure injection for the evaluation stack: degenerate
// geometry, missing sinks, cap/slew gates and corner bookkeeping.

#include <gtest/gtest.h>

#include "analysis/evaluate.h"
#include "cts/dme.h"
#include "netlist/generators.h"
#include "rctree/extract.h"

namespace contango {
namespace {

Benchmark two_sink_bench() {
  Benchmark b;
  b.name = "edge";
  b.die = Rect{0, 0, 2000, 2000};
  b.source = Point{0, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e6;
  b.sinks.push_back(Sink{"s0", Point{800, 200}, 10.0});
  b.sinks.push_back(Sink{"s1", Point{800, 900}, 10.0});
  return b;
}

TEST(EvaluatorEdge, MissingSinkReported) {
  Benchmark bench = two_sink_bench();
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId s0 = tree.add_child(root, NodeKind::kSink, {800, 200});
  tree.node(s0).sink_index = 0;
  // Sink 1 is absent from the tree.
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_FALSE(r.all_sinks_reached);
  EXPECT_FALSE(r.legal());
}

TEST(EvaluatorEdge, ZeroLengthEdgesSurvive) {
  Benchmark bench = two_sink_bench();
  bench.sinks[0].position = bench.source;  // sink exactly at the source
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId s0 = tree.add_child(root, NodeKind::kSink, bench.source);
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(root, NodeKind::kSink, {800, 900});
  tree.node(s1).sink_index = 1;
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.all_sinks_reached);
  EXPECT_GT(r.nominal_skew, 0.0);  // degenerate sink is much faster
}

TEST(EvaluatorEdge, CapViolationGate) {
  Benchmark bench = two_sink_bench();
  bench.tech.cap_limit = 10.0;  // absurdly tight
  ClockTree tree = build_zst(bench);
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.cap_violation);
  EXPECT_FALSE(r.legal());
}

TEST(EvaluatorEdge, SlewViolationOnLongUnbufferedWire) {
  Benchmark bench = two_sink_bench();
  bench.die = Rect{0, 0, 20000, 2000};
  bench.sinks[0].position = Point{15000, 100};
  bench.sinks[1].position = Point{15000, 900};
  ClockTree tree = build_zst(bench);  // 15 mm unbuffered: slew blows up
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.slew_violation);
}

TEST(EvaluatorEdge, CornerOrderingAndClr) {
  Benchmark bench = two_sink_bench();
  ClockTree tree = build_zst(bench);
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  ASSERT_EQ(r.corners.size(), 2u);
  EXPECT_DOUBLE_EQ(r.corners[0].vdd, 1.2);
  EXPECT_DOUBLE_EQ(r.corners[1].vdd, 1.0);
  // Low corner slower; CLR = max@low - min@nominal >= skew.
  EXPECT_GE(r.corners[1].max_latency(), r.corners[0].max_latency());
  EXPECT_GE(r.clr, r.nominal_skew - 1e-9);
  EXPECT_NEAR(r.clr, r.corners[1].max_latency() - r.corners[0].min_latency(), 1e-12);
}

TEST(EvaluatorEdge, SingleCornerFallsBackToSkew) {
  Benchmark bench = two_sink_bench();
  bench.tech.corners = {1.2};
  ClockTree tree = build_zst(bench);
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  ASSERT_EQ(r.corners.size(), 1u);
  EXPECT_DOUBLE_EQ(r.clr, r.nominal_skew);
}

TEST(EvaluatorEdge, SimRunCounterAndReset) {
  Benchmark bench = two_sink_bench();
  ClockTree tree = build_zst(bench);
  Evaluator eval(bench);
  eval.evaluate(tree);
  eval.evaluate(tree);
  EXPECT_EQ(eval.sim_runs(), 2);
  eval.reset_sim_runs();
  EXPECT_EQ(eval.sim_runs(), 0);
}

TEST(ExtractEdge, EmptyTree) {
  Benchmark bench = two_sink_bench();
  ClockTree tree;
  const StagedNetlist net = extract_stages(tree, bench);
  EXPECT_TRUE(net.stages.empty());
}

TEST(ExtractEdge, DeepBufferChain) {
  // A chain of buffers every 50 um: stage count equals buffer count + 1.
  Benchmark bench = two_sink_bench();
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId s0 = tree.add_child(root, NodeKind::kSink, {800, 200});
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(root, NodeKind::kSink, {800, 900});
  tree.node(s1).sink_index = 1;
  // Repeatedly split the (shrinking) edge directly above the sink.
  for (int k = 0; k < 10; ++k) {
    tree.insert_buffer(s0, 40.0, CompositeBuffer{0, 1});
  }
  const StagedNetlist net = extract_stages(tree, bench);
  EXPECT_EQ(net.stages.size(), 11u);
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.all_sinks_reached);
  // Ten inverters = even parity: both sinks keep positive polarity.
  EXPECT_EQ(tree.inversion_parity(s0) % 2, 0);
}

}  // namespace
}  // namespace contango
