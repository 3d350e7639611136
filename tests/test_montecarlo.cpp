// Monte-Carlo variation engine: determinism (thread-count invariance,
// fixed-seed reproducibility), statistical sanity (zero-variation model
// reproduces the nominal corner exactly), and the streaming-statistics
// primitives.  All "bit-identical" checks use EXPECT_EQ on doubles —
// exact comparison is the contract, not a tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/variation.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"

namespace contango {
namespace {

/// Small buffered network: fast enough for many trials, deep enough (several
/// buffer stages) that per-stage supply deviates have something to act on.
struct Fixture {
  Benchmark bench;
  ClockTree tree;

  Fixture() {
    bench.name = "mc_fixture";
    bench.die = Rect{0, 0, 6000, 6000};
    bench.source = Point{0, 0};
    bench.tech = ispd09_technology();
    bench.tech.cap_limit = 1e6;
    bench.tech.slew_limit = 1e6;  // ZST + one buffer row is not slew-clean
    for (int i = 0; i < 8; ++i) {
      bench.sinks.push_back(Sink{"s" + std::to_string(i),
                                 Point{700.0 + 600.0 * i, 500.0 + 550.0 * (i % 3)},
                                 8.0 + 2.0 * (i % 4)});
    }
    tree = build_zst(bench);
    insert_buffers(tree, bench, CompositeBuffer{0, 8});
  }
};

VariationModel typical_model(std::uint64_t seed = 7) {
  VariationModel m;
  m.sigma_vdd = 0.05;
  m.sigma_wire_r = 0.04;
  m.sigma_wire_c = 0.04;
  m.sigma_sink_cap = 0.03;
  m.seed = seed;
  return m;
}

void expect_reports_identical(const McReport& a, const McReport& b) {
  EXPECT_EQ(a.skew.mean, b.skew.mean);
  EXPECT_EQ(a.skew.stddev, b.skew.stddev);
  EXPECT_EQ(a.skew.min, b.skew.min);
  EXPECT_EQ(a.skew.max, b.skew.max);
  EXPECT_EQ(a.skew.p50, b.skew.p50);
  EXPECT_EQ(a.skew.p95, b.skew.p95);
  EXPECT_EQ(a.skew.p99, b.skew.p99);
  EXPECT_EQ(a.clr.mean, b.clr.mean);
  EXPECT_EQ(a.clr.stddev, b.clr.stddev);
  EXPECT_EQ(a.clr.p99, b.clr.p99);
  EXPECT_EQ(a.max_latency.mean, b.max_latency.mean);
  EXPECT_EQ(a.max_latency.max, b.max_latency.max);
  EXPECT_EQ(a.yield, b.yield);
  EXPECT_EQ(a.legal_fraction, b.legal_fraction);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].skew, b.samples[i].skew) << "trial " << i;
    EXPECT_EQ(a.samples[i].clr, b.samples[i].clr) << "trial " << i;
    EXPECT_EQ(a.samples[i].max_latency, b.samples[i].max_latency) << "trial " << i;
    EXPECT_EQ(a.samples[i].legal, b.samples[i].legal) << "trial " << i;
  }
}

TEST(StreamingStats, MatchesNaiveMoments) {
  StreamingStats s;
  const std::vector<double> xs = {4.0, -1.5, 7.25, 0.5, 3.75, 9.0, -2.25, 6.5};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_EQ(s.count(), static_cast<long>(xs.size()));
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), m2 / static_cast<double>(xs.size() - 1), 1e-12);
  EXPECT_EQ(s.min(), -2.25);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StreamingStats, BlockMergeIsDeterministic) {
  // The engine's contract: a fixed partition merged in fixed order gives
  // one exact answer, no matter which worker filled which block.
  const int n = 100;
  auto value = [](int i) { return std::sin(static_cast<double>(i)) * 10.0; };
  auto merged = [&](int block_size) {
    std::vector<StreamingStats> blocks((n + block_size - 1) / block_size);
    for (int i = 0; i < n; ++i) blocks[static_cast<std::size_t>(i / block_size)].add(value(i));
    StreamingStats total;
    for (const StreamingStats& b : blocks) total.merge(b);
    return total;
  };
  const StreamingStats a = merged(32);
  const StreamingStats b = merged(32);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  // Different partitions agree to rounding (not necessarily bitwise).
  const StreamingStats c = merged(7);
  EXPECT_NEAR(a.mean(), c.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), c.variance(), 1e-9);
  EXPECT_EQ(a.min(), c.min());
  EXPECT_EQ(a.max(), c.max());

  StreamingStats with_empty = merged(32);
  with_empty.merge(StreamingStats{});  // merging an empty accumulator: no-op
  EXPECT_EQ(with_empty.mean(), a.mean());
  EXPECT_EQ(with_empty.count(), a.count());
}

TEST(Percentile, NearestRank) {
  std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_EQ(percentile(xs, 20.0), 1.0);
  EXPECT_EQ(percentile(xs, 20.0001), 2.0);
  EXPECT_EQ(percentile({42.0}, 99.0), 42.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101.0), std::invalid_argument);
}

TEST(Percentile, EmptySampleSetYieldsNaNNotOutOfBounds) {
  // Regression: with no samples the nearest-rank index
  // `min(rank, size) - 1` used to underflow to SIZE_MAX and read out of
  // bounds (the mc_trials=0 summary path).  The total-function core now
  // returns NaN for an empty set and clamps out-of-domain p.
  EXPECT_TRUE(std::isnan(sorted_percentile({}, 50.0)));
  EXPECT_TRUE(std::isnan(sorted_percentile({}, 0.0)));
  EXPECT_TRUE(std::isnan(sorted_percentile({}, 100.0)));
  const std::vector<double> one = {7.0};
  EXPECT_EQ(sorted_percentile(one, 50.0), 7.0);
  EXPECT_EQ(sorted_percentile(one, 0.0), 7.0);    // rank clamped up to 1
  EXPECT_EQ(sorted_percentile(one, 200.0), 7.0);  // rank clamped down to n
  // Out-of-domain p clamps *before* the float->index conversion (a
  // negative or NaN rank cast to size_t would be UB, not just wrong).
  EXPECT_EQ(sorted_percentile(one, -60.0), 7.0);
  EXPECT_EQ(sorted_percentile(one, std::numeric_limits<double>::quiet_NaN()), 7.0);
}

TEST(VariationSampling, PureFunctionOfSeedAndTrial) {
  const Fixture f;
  const VariationModel model = typical_model();
  const TrialVariation a = sample_trial(model, f.bench.tech, 5, 4, 8);
  const TrialVariation b = sample_trial(model, f.bench.tech, 5, 4, 8);
  ASSERT_EQ(a.stage_vdd_delta.size(), 4u);
  ASSERT_EQ(a.sink_cap_scale.size(), 8u);
  EXPECT_EQ(a.wire_r_scale, b.wire_r_scale);
  EXPECT_EQ(a.wire_c_scale, b.wire_c_scale);
  EXPECT_EQ(a.stage_vdd_delta, b.stage_vdd_delta);
  EXPECT_EQ(a.sink_cap_scale, b.sink_cap_scale);

  // Adjacent trials draw from decorrelated substreams.
  const TrialVariation c = sample_trial(model, f.bench.tech, 6, 4, 8);
  EXPECT_NE(a.wire_r_scale, c.wire_r_scale);
  EXPECT_NE(a.stage_vdd_delta, c.stage_vdd_delta);
}

TEST(VariationSampling, CornerBelowVddFloorNeverBiasesZeroModel) {
  // A corner already below the 0.25*vdd_nom floor must not push zero-model
  // deltas positive: the clamp may only pull deviates toward zero.
  const Fixture f;
  Technology tech = f.bench.tech;
  tech.corners = {1.2, 0.25};  // floor is 0.25 * 1.2 = 0.3 V
  const TrialVariation v = sample_trial(VariationModel{}, tech, 0, 3, 2);
  for (double d : v.stage_vdd_delta) EXPECT_EQ(d, 0.0);
}

TEST(VariationSampling, ZeroModelSamplesIdentity) {
  const Fixture f;
  VariationModel zero;
  EXPECT_TRUE(zero.is_zero());
  const TrialVariation v = sample_trial(zero, f.bench.tech, 3, 5, 8);
  EXPECT_EQ(v.wire_r_scale, 1.0);
  EXPECT_EQ(v.wire_c_scale, 1.0);
  for (double d : v.stage_vdd_delta) EXPECT_EQ(d, 0.0);
  for (double s : v.sink_cap_scale) EXPECT_EQ(s, 1.0);
  EXPECT_FALSE(typical_model().is_zero());
}

// Acceptance criterion: a zero-variation model reproduces the nominal
// corner exactly — every trial, bitwise.
TEST(MonteCarlo, ZeroVariationReproducesNominalExactly) {
  const Fixture f;
  Evaluator eval(f.bench);
  const EvalResult nominal = eval.evaluate(f.tree);

  McOptions options;
  options.trials = 5;
  options.threads = 2;
  const McReport report = run_montecarlo(f.bench, f.tree, VariationModel{}, options);

  EXPECT_EQ(report.nominal.nominal_skew, nominal.nominal_skew);
  EXPECT_EQ(report.nominal.clr, nominal.clr);
  EXPECT_EQ(report.nominal.max_latency, nominal.max_latency);
  EXPECT_EQ(report.nominal.total_cap, nominal.total_cap);
  const bool nominal_legal = !nominal.slew_violation && nominal.all_sinks_reached;
  EXPECT_TRUE(nominal_legal);
  for (const McTrial& t : report.samples) {
    EXPECT_EQ(t.skew, nominal.nominal_skew);
    EXPECT_EQ(t.clr, nominal.clr);
    EXPECT_EQ(t.max_latency, nominal.max_latency);
    EXPECT_EQ(t.worst_slew, nominal.worst_slew);
    EXPECT_EQ(t.legal, nominal_legal);
  }
  EXPECT_EQ(report.skew.mean, nominal.nominal_skew);
  EXPECT_EQ(report.skew.min, nominal.nominal_skew);
  EXPECT_EQ(report.skew.max, nominal.nominal_skew);
  EXPECT_EQ(report.skew.p50, nominal.nominal_skew);
  EXPECT_EQ(report.skew.p99, nominal.nominal_skew);
  EXPECT_EQ(report.skew.stddev, 0.0);
  EXPECT_EQ(report.clr.stddev, 0.0);
  EXPECT_EQ(report.legal_fraction, 1.0);
}

// Workers take trials one at a time, so one worker's trials straddle the
// block boundary: 40 trials make a full block and a partial one, and the
// report — JSON with samples included — still equals the serial one.
TEST(MonteCarlo, FortyTrialsOnFourThreadsMatchOneThread) {
  const Fixture f;
  const VariationModel model = typical_model(3);

  McOptions serial;
  serial.trials = 40;
  serial.threads = 1;
  McOptions parallel = serial;
  parallel.threads = 4;

  McReport a = run_montecarlo(f.bench, f.tree, model, serial);
  McReport b = run_montecarlo(f.bench, f.tree, model, parallel);
  EXPECT_EQ(b.threads, 4);
  expect_reports_identical(a, b);
  a.wall_seconds = b.wall_seconds = 0.0;
  a.threads = b.threads;
  EXPECT_EQ(a.to_json(true), b.to_json(true));
}

// Acceptance criterion: statistics are bit-identical across 1 vs N worker
// threads for a fixed seed.
TEST(MonteCarlo, OneThreadAndEightThreadsBitIdentical) {
  const Fixture f;
  const VariationModel model = typical_model();

  McOptions serial;
  serial.trials = 80;  // > 2 blocks, last block partial
  serial.threads = 1;
  McOptions parallel = serial;
  parallel.threads = 8;

  const McReport a = run_montecarlo(f.bench, f.tree, model, serial);
  const McReport b = run_montecarlo(f.bench, f.tree, model, parallel);
  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(b.threads, 8);
  expect_reports_identical(a, b);
}

TEST(MonteCarlo, FixedSeedGoldenStatsAndSeedSensitivity) {
  const Fixture f;
  McOptions options;
  options.trials = 64;
  options.threads = 2;

  const McReport a = run_montecarlo(f.bench, f.tree, typical_model(7), options);
  const McReport b = run_montecarlo(f.bench, f.tree, typical_model(7), options);
  expect_reports_identical(a, b);  // same seed: same report, bitwise

  // Distribution shape invariants of the golden run.
  EXPECT_GT(a.skew.stddev, 0.0);
  EXPECT_LE(a.skew.min, a.skew.p50);
  EXPECT_LE(a.skew.p50, a.skew.p95);
  EXPECT_LE(a.skew.p95, a.skew.p99);
  EXPECT_LE(a.skew.p99, a.skew.max);
  EXPECT_GE(a.skew.mean, a.skew.min);
  EXPECT_LE(a.skew.mean, a.skew.max);
  // Variation-induced imbalance: the mean perturbed skew exceeds nominal,
  // and the spread stays within the same order of magnitude.
  EXPECT_GT(a.skew.mean, a.nominal.nominal_skew);
  EXPECT_LT(a.skew.max, a.nominal.nominal_skew + 100.0 * a.nominal.max_latency);
  EXPECT_GT(a.clr.mean, 0.0);
  EXPECT_GT(a.max_latency.mean, 0.0);

  // A different substream seed produces different trials.
  const McReport c = run_montecarlo(f.bench, f.tree, typical_model(8), options);
  EXPECT_NE(a.skew.mean, c.skew.mean);
}

TEST(MonteCarlo, YieldAgainstSkewTarget) {
  const Fixture f;
  const VariationModel model = typical_model();
  McOptions options;
  options.trials = 48;
  options.threads = 2;

  options.skew_target = 1e9;  // every legal trial passes
  const McReport loose = run_montecarlo(f.bench, f.tree, model, options);
  EXPECT_EQ(loose.trials, 48);
  EXPECT_EQ(loose.samples.size(), 48u);
  EXPECT_EQ(loose.yield, loose.legal_fraction);

  options.skew_target = 1e-9;  // (almost) no trial passes
  const McReport tight = run_montecarlo(f.bench, f.tree, model, options);
  EXPECT_EQ(tight.yield, 0.0);
  EXPECT_LE(tight.yield, loose.yield);
}

TEST(MonteCarlo, RejectsDegenerateInputs) {
  const Fixture f;
  McOptions options;
  options.trials = 0;
  EXPECT_THROW(run_montecarlo(f.bench, f.tree, VariationModel{}, options),
               std::invalid_argument);
  options.trials = 1;
  EXPECT_THROW(run_montecarlo(f.bench, ClockTree{}, VariationModel{}, options),
               std::invalid_argument);
}

TEST(MonteCarlo, JsonReportIsWellFormed) {
  const Fixture f;
  McOptions options;
  options.trials = 4;
  const McReport report = run_montecarlo(f.bench, f.tree, typical_model(), options);
  const std::string json = report.to_json(/*with_samples=*/true);
  EXPECT_NE(json.find("\"type\":\"contango_mc_report\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmark\":\"mc_fixture\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":["), std::string::npos);
  // Balanced braces/brackets — the writer closes every container.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(report.to_json(false).find("\"samples\""), std::string::npos);
}

}  // namespace
}  // namespace contango
