#include <gtest/gtest.h>

#include <string>

#include "cts/flow.h"
#include "netlist/generators.h"

namespace contango {
namespace {

/// The full-flow integration tests run on the two smallest suite entries to
/// keep the suite fast; the benches cover all seven.

TEST(Flow, EndToEndLegalAndOrdered) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);

  // All five Table III stage snapshots present, in order.
  ASSERT_EQ(r.stages.size(), 5u);
  EXPECT_EQ(r.stages[0].name, "INITIAL");
  EXPECT_EQ(r.stages[1].name, "TBSZ");
  EXPECT_EQ(r.stages[2].name, "TWSZ");
  EXPECT_EQ(r.stages[3].name, "TWSN");
  EXPECT_EQ(r.stages[4].name, "BWSN");

  // Final network is legal.
  EXPECT_TRUE(r.eval.all_sinks_reached);
  EXPECT_FALSE(r.eval.slew_violation)
      << "worst slew " << r.eval.worst_slew;
  EXPECT_FALSE(r.eval.cap_violation)
      << r.eval.total_cap << " vs " << bench.tech.cap_limit;
  r.tree.validate();

  // Skew was reduced substantially from the initial buffered tree, to a
  // small fraction of insertion delay (the paper reaches low single-digit
  // ps; the shape requirement here is a strong relative reduction).
  EXPECT_LT(r.eval.nominal_skew, 0.5 * r.stages[0].skew + 1.0);
  EXPECT_LT(r.eval.nominal_skew, 0.05 * r.eval.max_latency);

  // CLR improved and stayed above skew (it includes corner spread).
  EXPECT_LE(r.eval.clr, r.stages[0].clr);
  EXPECT_GE(r.eval.clr, r.eval.nominal_skew);

  // Simulation budget in the paper's band (Table V: ~15-45 runs).
  EXPECT_GE(r.sim_runs, 5);
  EXPECT_LE(r.sim_runs, 80);
}

TEST(Flow, MonotoneSkewAcrossSkewPhases) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(6));
  const FlowResult r = run_contango(bench);
  ASSERT_EQ(r.stages.size(), 5u);
  // IVC never accepts a skew regression in the skew-objective phases.
  EXPECT_LE(r.stages[2].skew, r.stages[1].skew + 1e-9);  // TWSZ
  EXPECT_LE(r.stages[3].skew, r.stages[2].skew + 1e-9);  // TWSN
  EXPECT_LE(r.stages[4].skew, r.stages[3].skew + 1e-9);  // BWSN
  // TBSZ targets CLR and must not worsen it.
  EXPECT_LE(r.stages[1].clr, r.stages[0].clr + 1e-9);
}

TEST(Flow, DeterministicAcrossRuns) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult a = run_contango(bench);
  const FlowResult b = run_contango(bench);
  EXPECT_DOUBLE_EQ(a.eval.nominal_skew, b.eval.nominal_skew);
  EXPECT_DOUBLE_EQ(a.eval.clr, b.eval.clr);
  EXPECT_EQ(a.tree.size(), b.tree.size());
  EXPECT_EQ(a.sim_runs, b.sim_runs);
}

TEST(Flow, PipelineSpecAblatesCleanly) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity,twsz,bwsn";
  const FlowResult r = run_contango(bench, options);
  ASSERT_EQ(r.stages.size(), 3u);  // INITIAL, TWSZ, BWSN
  EXPECT_EQ(r.stages[1].name, "TWSZ");
  EXPECT_EQ(r.stages[2].name, "BWSN");
  r.tree.validate();
}

TEST(Flow, PolarityCleanAtEnd) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);
  for (NodeId id : r.tree.topological_order()) {
    if (r.tree.node(id).is_sink()) {
      EXPECT_EQ(r.tree.inversion_parity(id) % 2, 0)
          << "sink node " << id << " inverted";
    }
  }
}

TEST(Flow, BuffersOutsideObstacles) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);
  const ObstacleSet& obs = bench.obstacles();
  int blocked = 0;
  for (NodeId id : r.tree.topological_order()) {
    if (r.tree.node(id).is_buffer() && obs.blocks_point(r.tree.node(id).pos)) {
      ++blocked;
    }
  }
  EXPECT_EQ(blocked, 0);
}

/// Table IV's baselines are prefixes of the Contango pipeline
/// (bench_table4_contest): CONSTR builds the tree, WSIZE adds one
/// wiresizing round through the same IVC gate.
const std::string kConstrSpec = "dme,repair,insert:max_ladder=1,polarity";
const std::string kWsizeSpec = kConstrSpec + ",twsz:rounds=1";

FlowResult run_spec(const Benchmark& bench, const std::string& spec) {
  FlowOptions options;
  options.pipeline = spec;
  return run_contango(bench, options);
}

TEST(Baselines, ContangoBeatsWsizeOnClrAndSkew) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult contango = run_contango(bench);
  const FlowResult wsize = run_spec(bench, kWsizeSpec);

  // Table IV shape: Contango beats the WSIZE baseline on CLR and skew.
  EXPECT_LT(contango.eval.clr, wsize.eval.clr);
  EXPECT_LT(contango.eval.nominal_skew, wsize.eval.nominal_skew);
}

TEST(Baselines, WsizeStartsFromConstrAndGatesOneRound) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult constr = run_spec(bench, kConstrSpec);
  const FlowResult wsize = run_spec(bench, kWsizeSpec);

  // WSIZE's INITIAL snapshot is CONSTR's final network, bit for bit.
  ASSERT_FALSE(wsize.stages.empty());
  const StageSnapshot& initial = wsize.stages.front();
  EXPECT_EQ(initial.name, "INITIAL");
  EXPECT_EQ(initial.skew, constr.eval.nominal_skew);
  EXPECT_EQ(initial.clr, constr.eval.clr);
  EXPECT_EQ(initial.cap, constr.eval.total_cap);

  // rounds=1 caps TWSZ at one gated candidate.
  int twsz_passes = 0;
  for (const PassTiming& pass : wsize.pass_timings) {
    if (pass.name != "TWSZ") continue;
    ++twsz_passes;
    EXPECT_LE(pass.ivc.accepted + pass.ivc.rejected, 1);
  }
  EXPECT_EQ(twsz_passes, 1);
}

}  // namespace
}  // namespace contango
