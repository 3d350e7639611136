// Transient-engine edge cases feeding the Monte-Carlo variation engine:
// zero-length stages, single-sink trees and extreme supply corners must
// never leak NaN or negative delays/slews into EvalResult — the MC driver
// streams these numbers straight into yield statistics, where one NaN
// would silently poison every aggregate.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "analysis/transient.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"
#include "rctree/extract.h"

namespace contango {
namespace {

void expect_all_timings_sane(const EvalResult& r) {
  EXPECT_TRUE(std::isfinite(r.nominal_skew));
  EXPECT_TRUE(std::isfinite(r.clr));
  EXPECT_TRUE(std::isfinite(r.max_latency));
  EXPECT_TRUE(std::isfinite(r.worst_slew));
  EXPECT_GE(r.nominal_skew, 0.0);
  EXPECT_GE(r.worst_slew, 0.0);
  for (const CornerTiming& corner : r.corners) {
    EXPECT_TRUE(std::isfinite(corner.max_slew));
    EXPECT_GE(corner.max_slew, 0.0);
    for (const auto& per_transition : corner.sinks) {
      for (const SinkTiming& s : per_transition) {
        if (!s.reached) continue;
        EXPECT_TRUE(std::isfinite(s.latency));
        EXPECT_TRUE(std::isfinite(s.slew));
        EXPECT_GE(s.latency, 0.0);
        EXPECT_GE(s.slew, 0.0);
      }
    }
  }
}

/// One drive through the kernel: `stage` in a batch of one.  Returns one
/// TapTiming per tap.
std::vector<TapTiming> simulate(const TransientSimulator& sim, const Stage& stage,
                                KOhm r_drv, Ps intrinsic, Ps input_slew) {
  const BatchDrive drive{r_drv, intrinsic, input_slew};
  std::vector<TapTiming> taps(stage.taps.size());
  TransientScratch scratch;
  sim.simulate_stage_batch(stage, &drive, 1, taps.data(), scratch);
  return taps;
}

Benchmark small_bench(int num_sinks) {
  Benchmark b;
  b.name = "transient_edge";
  b.die = Rect{0, 0, 4000, 4000};
  b.source = Point{0, 0};
  b.tech = ispd09_technology();
  b.tech.cap_limit = 1e6;
  for (int i = 0; i < num_sinks; ++i) {
    b.sinks.push_back(Sink{"s" + std::to_string(i),
                           Point{600.0 + 500.0 * i, 800.0 + 300.0 * (i % 2)},
                           10.0});
  }
  return b;
}

TEST(TransientEdge, ZeroLengthStageIsPureLoad) {
  // A stage whose driver sees only a lumped pin cap at its own output —
  // no wire at all (buffer stacked directly on a sink).  The RC "tree" is
  // a single node; timing must still be finite and ordered.
  Stage stage;
  stage.nodes.push_back(RcNode{25.0, -1, 0.0});
  stage.taps.push_back(Tap{kNoNode, 0, true, 0, 25.0});
  const TransientSimulator sim;
  const std::vector<TapTiming> taps = simulate(sim, stage, 1.0, 15.0, 10.0);
  ASSERT_EQ(taps.size(), 1u);
  EXPECT_TRUE(std::isfinite(taps[0].delay));
  EXPECT_TRUE(std::isfinite(taps[0].slew));
  EXPECT_GT(taps[0].delay, 0.0);  // at least the intrinsic delay
  EXPECT_GT(taps[0].slew, 0.0);
}

TEST(TransientEdge, StageWithNoTapsReturnsEmpty) {
  Stage stage;
  stage.nodes.push_back(RcNode{5.0, -1, 0.0});
  const TransientSimulator sim;
  EXPECT_TRUE(simulate(sim, stage, 0.5, 0.0, 10.0).empty());
}

TEST(TransientEdge, SingleSinkTreeHasZeroSkew) {
  const Benchmark bench = small_bench(1);
  ClockTree tree = build_zst(bench);
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.all_sinks_reached);
  expect_all_timings_sane(r);
  EXPECT_EQ(r.nominal_skew, 0.0);  // one sink: max == min latency, exactly
  EXPECT_GT(r.max_latency, 0.0);
  EXPECT_GE(r.clr, 0.0);
}

TEST(TransientEdge, ExtremeLowVddCornerStaysFinite) {
  Benchmark bench = small_bench(4);
  bench.tech.corners = {1.2, 0.3};  // 4x below nominal: far outside contest range
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.all_sinks_reached);
  expect_all_timings_sane(r);
  // The starved corner is strictly slower than nominal.
  ASSERT_EQ(r.corners.size(), 2u);
  EXPECT_GT(r.corners[1].max_latency(), r.corners[0].max_latency());
}

TEST(TransientEdge, ExtremeVariationTrialsStayFinite) {
  // Drive the MC engine far beyond calibrated sigmas: the sampling clamps
  // (scale floor, Vdd floor) must keep every trial physical.
  const Benchmark bench = small_bench(6);
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});

  VariationModel model;
  model.sigma_vdd = 0.5;
  model.sigma_wire_r = 0.5;
  model.sigma_wire_c = 0.5;
  model.sigma_sink_cap = 0.5;
  model.seed = 3;
  McOptions options;
  options.trials = 24;
  options.threads = 2;
  const McReport report = run_montecarlo(bench, tree, model, options);
  for (const McTrial& t : report.samples) {
    EXPECT_TRUE(std::isfinite(t.skew));
    EXPECT_TRUE(std::isfinite(t.clr));
    EXPECT_TRUE(std::isfinite(t.max_latency));
    EXPECT_TRUE(std::isfinite(t.worst_slew));
    EXPECT_GE(t.skew, 0.0);
    EXPECT_GE(t.max_latency, 0.0);
    EXPECT_GE(t.worst_slew, 0.0);
  }
  EXPECT_TRUE(std::isfinite(report.skew.mean));
  EXPECT_TRUE(std::isfinite(report.skew.stddev));
}

TEST(TransientEdge, SinkOnTopOfSourceKeepsFiniteTimings) {
  Benchmark bench = small_bench(2);
  bench.sinks[0].position = bench.source;
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const NodeId s0 = tree.add_child(root, NodeKind::kSink, bench.source);
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(root, NodeKind::kSink, bench.sinks[1].position);
  tree.node(s1).sink_index = 1;
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  EXPECT_TRUE(r.all_sinks_reached);
  expect_all_timings_sane(r);
}

}  // namespace
}  // namespace contango
