#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "netlist/generators.h"

namespace contango {
namespace {

// ------------------------------------------------------------ spec parsing --

TEST(PipelineSpec, ParsesNamesAndParams) {
  const auto items =
      parse_pipeline_spec("dme, repair ,insert,twsn:rounds=3:unit=10.5");
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].name, "dme");
  EXPECT_EQ(items[1].name, "repair");  // whitespace trimmed
  EXPECT_TRUE(items[1].params.empty());
  EXPECT_EQ(items[3].name, "twsn");
  ASSERT_EQ(items[3].params.size(), 2u);
  EXPECT_EQ(items[3].params[0].first, "rounds");
  EXPECT_EQ(items[3].params[0].second, "3");
  EXPECT_EQ(items[3].params[1].first, "unit");
  EXPECT_EQ(items[3].params[1].second, "10.5");
}

TEST(PipelineSpec, RejectsEmptySpec) {
  EXPECT_THROW(parse_pipeline_spec(""), PipelineError);
  EXPECT_THROW(parse_pipeline_spec("   "), PipelineError);
}

TEST(PipelineSpec, RejectsStrayCommas) {
  EXPECT_THROW(parse_pipeline_spec("dme,,repair"), PipelineError);
  EXPECT_THROW(parse_pipeline_spec("dme,"), PipelineError);
  EXPECT_THROW(parse_pipeline_spec(",dme"), PipelineError);
}

TEST(PipelineSpec, RejectsMalformedParams) {
  EXPECT_THROW(parse_pipeline_spec("twsz:safety"), PipelineError);   // no '='
  EXPECT_THROW(parse_pipeline_spec("twsz:=0.5"), PipelineError);     // no key
  EXPECT_THROW(parse_pipeline_spec("twsz:rounds="), PipelineError);  // no value
}

TEST(PipelineSpec, UnknownPassNamedInError) {
  try {
    Pipeline::from_spec("dme,bogus,twsz");
    FAIL() << "expected PipelineError";
  } catch (const PipelineError& e) {
    // The pass set is closed: the error lists all eight stock passes, in
    // flow order.
    EXPECT_EQ(std::string(e.what()),
              "unknown pass 'bogus' (known passes: dme, repair, insert, "
              "polarity, tbsz, twsz, twsn, bwsn)");
  }
  for (const char* name : {"dme", "repair", "insert", "polarity", "tbsz",
                           "twsz", "twsn", "bwsn"}) {
    SCOPED_TRACE(name);
    const Pipeline pipeline = Pipeline::from_spec(name);
    EXPECT_EQ(pipeline.size(), 1u);
    EXPECT_EQ(pipeline.spec(), name);
  }
}

TEST(PipelineSpec, UnknownOrMalformedParamRejected) {
  // Every rejection names the pass and the parameter.
  const struct {
    const char* spec;
    const char* pass;
    const char* key;
  } bad[] = {
      {"twsz:bogus=1", "twsz", "bogus"},
      {"twsz:unit=20", "twsz", "unit"},  // TWSZ sizes wires, snakes none
      {"twsz:rounds=abc", "twsz", "rounds"},
      {"twsn:unit=abc", "twsn", "unit"},
      {"insert:max_ladder=0", "insert", "max_ladder"},
      {"dme:balance=sideways", "dme", "balance"},
      // Out of range or not finite: each would otherwise run (spacing=0
      // never leaves the insertion DP's site loop) or compute nonsense.
      {"insert:spacing=0", "insert", "spacing"},
      {"insert:spacing=-100", "insert", "spacing"},
      {"insert:reserve=5", "insert", "reserve"},
      {"dme:wire_width=-1", "dme", "wire_width"},
      {"twsn:unit=-20", "twsn", "unit"},
      {"twsn:unit=nan", "twsn", "unit"},
      {"bwsn:unit=0", "bwsn", "unit"},
      {"twsz:safety=-1", "twsz", "safety"},
      {"twsz:rounds=-3", "twsz", "rounds"},
      {"tbsz:iters=-1", "tbsz", "iters"},
      {"repair:max_crossing=-5", "repair", "max_crossing"},
      {"polarity:offset=inf", "polarity", "offset"},
      {"tbsz:levels=99999999999", "tbsz", "levels"},
  };
  for (const auto& b : bad) {
    SCOPED_TRACE(b.spec);
    try {
      Pipeline::from_spec(b.spec);
      ADD_FAILURE() << "expected PipelineError";
    } catch (const PipelineError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("pass '" + std::string(b.pass) + "'"),
                std::string::npos) << message;
      EXPECT_NE(message.find(b.key), std::string::npos) << message;
    }
  }

  // A wire index is checked against the benchmark's technology, before
  // any pass runs.
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const Pipeline wide = Pipeline::from_spec("dme:wire_width=99");
  try {
    wide.check(bench);
    ADD_FAILURE() << "expected PipelineError";
  } catch (const PipelineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("pass 'dme'"), std::string::npos) << message;
    EXPECT_NE(message.find("wire_width=99"), std::string::npos) << message;
  }
  FlowOptions options;
  options.pipeline = "dme:wire_width=99,repair,insert,polarity";
  EXPECT_THROW(run_contango(bench, options), PipelineError);
  EXPECT_NO_THROW(Pipeline::from_spec("dme:wire_width=0").check(bench));
}

TEST(PipelineSpec, ParamsAtTheirRangeEdgesAccepted) {
  for (const char* spec :
       {"insert:spacing=10:reserve=0:max_ladder=64", "twsz:safety=1:rounds=0",
        "twsn:unit=1", "bwsn:unit=1000", "repair:max_crossing=0:cap_factor=1",
        "polarity:offset=0", "tbsz:iters=0:levels=0"}) {
    SCOPED_TRACE(spec);
    EXPECT_NO_THROW(Pipeline::from_spec(spec));
  }
}

TEST(PipelineSpec, ContainsAndWithoutHelpers) {
  EXPECT_TRUE(pipeline_spec_contains("dme, repair, twsz:rounds=2", "twsz"));
  EXPECT_FALSE(pipeline_spec_contains("dme,repair", "twsz"));
  // Removal keeps the other passes' overrides and normalizes whitespace.
  EXPECT_EQ(pipeline_spec_without("dme, repair, twsz:rounds=2, bwsn", "twsz"),
            "dme,repair,bwsn");
  EXPECT_EQ(pipeline_spec_without("dme,twsn:unit=10,bwsn", "bwsn"),
            "dme,twsn:unit=10");
  EXPECT_THROW(pipeline_spec_without("dme", "dme"), PipelineError);
  EXPECT_THROW(pipeline_spec_contains("dme,,twsz", "dme"), PipelineError);
}

TEST(PipelineSpec, ResolvedSpecFallsBackToTheFullDefault) {
  EXPECT_EQ(default_pipeline_spec(),
            "dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn");
  FlowOptions options;
  EXPECT_EQ(resolved_pipeline_spec(options), default_pipeline_spec());
  options.pipeline = "  ";  // blank counts as unset
  EXPECT_EQ(resolved_pipeline_spec(options), default_pipeline_spec());

  // An explicit spec wins.
  options.pipeline = "dme,repair,insert,polarity,twsn";
  EXPECT_EQ(resolved_pipeline_spec(options), options.pipeline);
}

// -------------------------------------------------------------- execution --

/// Full bit-identicality check between two flow results: tree shape,
/// metrics, simulation budget and stage trajectory.
void expect_identical(const FlowResult& a, const FlowResult& b) {
  EXPECT_EQ(a.eval.nominal_skew, b.eval.nominal_skew);
  EXPECT_EQ(a.eval.clr, b.eval.clr);
  EXPECT_EQ(a.eval.max_latency, b.eval.max_latency);
  EXPECT_EQ(a.eval.worst_slew, b.eval.worst_slew);
  EXPECT_EQ(a.eval.total_cap, b.eval.total_cap);
  EXPECT_EQ(a.sim_runs, b.sim_runs);
  EXPECT_EQ(a.tree.size(), b.tree.size());
  EXPECT_EQ(a.tree.buffer_count(), b.tree.buffer_count());
  EXPECT_EQ(a.buffer.inverter_type, b.buffer.inverter_type);
  EXPECT_EQ(a.buffer.count, b.buffer.count);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].name, b.stages[i].name);
    EXPECT_EQ(a.stages[i].skew, b.stages[i].skew);
    EXPECT_EQ(a.stages[i].clr, b.stages[i].clr);
    EXPECT_EQ(a.stages[i].cap, b.stages[i].cap);
    EXPECT_EQ(a.stages[i].sim_runs, b.stages[i].sim_runs);
  }
}

// The acceptance lock of the pass-pipeline redesign: on every registered
// scenario family, the legacy entry point (which resolves the default
// spec) and an explicitly built default pipeline agree bit for bit.
TEST(Pipeline, DefaultPipelineMatchesLegacyOnEveryFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    const Benchmark bench = make_scenario(family.name, 1);
    const FlowResult legacy = run_contango(bench);
    Pipeline pipeline =
        Pipeline::from_spec("dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn");
    const FlowResult explicit_run = pipeline.run(bench);
    SCOPED_TRACE(family.name);
    expect_identical(legacy, explicit_run);
    EXPECT_EQ(explicit_run.pipeline_spec,
              "dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn");
  }
}

TEST(Pipeline, PassTimingsCoverEveryPassInOrder) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  const FlowResult r = run_contango(bench);

  const std::vector<std::string> expected{"DME",  "REPAIR", "INSERT",
                                          "POLARITY", "TBSZ", "TWSZ",
                                          "TWSN", "BWSN"};
  ASSERT_EQ(r.pass_timings.size(), expected.size());
  EvalWork sum;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const PassTiming& p = r.pass_timings[i];
    EXPECT_EQ(p.name, expected[i]);
    EXPECT_GE(p.wall_seconds, 0.0);
    EXPECT_GE(p.cpu_seconds, 0.0);
    EXPECT_GE(p.sim_runs, 0);
    sum.sim_runs += p.sim_runs;
    sum.full_evals += p.full_evals;
    sum.incremental_evals += p.incremental_evals;
    sum.batched_stage_evals += p.batched_stage_evals;
    sum.stage_reuses += p.stage_reuses;
  }
  // Composite selection always evaluates at least one candidate.
  EXPECT_GT(r.pass_timings[2].sim_runs, 0) << "INSERT evaluates candidates";
  // Every evaluation is attributed to a pass except the single INITIAL
  // snapshot evaluation, which belongs to the pipeline itself: an
  // incremental one after the construction passes' rebuild, so it
  // simulates stages and replays none.
  EXPECT_EQ(sum.sim_runs + 1, r.sim_runs);
  EXPECT_EQ(sum.incremental_evals + 1, r.incremental_evals);
  EXPECT_EQ(sum.full_evals, r.full_evals);
  EXPECT_EQ(sum.stage_reuses, r.stage_reuses);
  EXPECT_GT(r.batched_stage_evals, sum.batched_stage_evals);
}

// Satellite lock: repeated passes must snapshot under unique names.
TEST(Pipeline, RepeatedPassGetsUniqueSnapshotNames) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity,twsz,twsz";
  const FlowResult r = run_contango(bench, options);

  std::vector<std::string> names;
  for (const StageSnapshot& s : r.stages) names.push_back(s.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"INITIAL", "TWSZ", "TWSZ#2"}));
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size()) << "duplicate snapshot names";

  // stage() resolves both instances unambiguously.
  ASSERT_NE(r.stage("TWSZ"), nullptr);
  ASSERT_NE(r.stage("TWSZ#2"), nullptr);
  EXPECT_LE(r.stage("TWSZ#2")->skew, r.stage("TWSZ")->skew + 1e-9);

  // Timing names stay unique as well.
  std::set<std::string> timing_names;
  for (const PassTiming& p : r.pass_timings) timing_names.insert(p.name);
  EXPECT_EQ(timing_names.size(), r.pass_timings.size());
}

TEST(Pipeline, ZeroRoundOverrideIsANoOpStage) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions construction;
  construction.pipeline = "dme,repair,insert,polarity";
  const FlowResult base = run_contango(bench, construction);
  ASSERT_EQ(base.stages.size(), 1u);
  EXPECT_EQ(base.stages[0].name, "INITIAL");

  FlowOptions with_noop = construction;
  with_noop.pipeline = "dme,repair,insert,polarity,twsn:rounds=0";
  const FlowResult noop = run_contango(bench, with_noop);
  ASSERT_EQ(noop.stages.size(), 2u);
  EXPECT_EQ(noop.stages[1].name, "TWSN");
  // Zero rounds edit nothing: the network is exactly the constructed one.
  EXPECT_EQ(noop.eval.nominal_skew, base.eval.nominal_skew);
  EXPECT_EQ(noop.eval.clr, base.eval.clr);
  EXPECT_EQ(noop.tree.size(), base.tree.size());
}

TEST(Pipeline, ParameterOverrideChangesTheFlow) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions coarse;
  coarse.pipeline = "dme,repair,insert,polarity,twsn:unit=80";
  const FlowResult a = run_contango(bench, coarse);
  FlowOptions fine;
  fine.pipeline = "dme,repair,insert,polarity,twsn:unit=5";
  const FlowResult b = run_contango(bench, fine);
  // Different snake units must visibly change the synthesis outcome.
  EXPECT_NE(a.eval.nominal_skew, b.eval.nominal_skew);
  // Both still end legal and IVC-monotone from INITIAL.
  EXPECT_LE(a.eval.nominal_skew, a.stages[0].skew + 1e-9);
  EXPECT_LE(b.eval.nominal_skew, b.stages[0].skew + 1e-9);
}

// A spec that never builds a tree must fail with a clear error, not crash
// — it is reachable straight from the CONTANGO_PIPELINE env knob.
TEST(Pipeline, SpecWithoutTreeBuildingPassesFailsCleanly) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  for (const char* spec : {"twsz", "insert,twsz", "repair", "polarity"}) {
    FlowOptions options;
    options.pipeline = spec;
    SCOPED_TRACE(spec);
    try {
      run_contango(bench, options);
      FAIL() << "expected PipelineError";
    } catch (const PipelineError& e) {
      EXPECT_NE(std::string(e.what()).find("tree"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Pipeline, ConstructionOnlyPipelineStillEvaluates) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  FlowOptions options;
  options.pipeline = "dme,repair,insert,polarity";
  const FlowResult r = run_contango(bench, options);
  EXPECT_TRUE(r.eval.all_sinks_reached);
  EXPECT_GT(r.eval.max_latency, 0.0);
  EXPECT_GT(r.sim_runs, 0);
  EXPECT_EQ(r.pipeline_spec, options.pipeline);
  r.tree.validate();
}

}  // namespace
}  // namespace contango
