#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "cts/dme.h"
#include "cts/flow.h"
#include "cts/pass.h"
#include "cts/scenario.h"
#include "cts/vanginneken.h"
#include "netlist/constraints.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "service/cache.h"
#include "util/rng.h"

namespace contango {
namespace {

/// \file test_constraints.cpp
/// \brief The TimingConstraints model end to end: trivial-identity
/// guarantees (the backward-compat golden contract), text-directive
/// round-trips, constraint aggregation in evaluation, Monte-Carlo yield
/// under windows, the generalized IVC gate, and the service cache key.

constexpr double kIeeeInf = std::numeric_limits<double>::infinity();

Benchmark small_bench(int n_sinks, std::uint64_t seed) {
  Benchmark bench;
  bench.name = "constraints";
  bench.die = Rect{0, 0, 6000, 6000};
  bench.source = Point{3000, 0};
  bench.tech = ispd09_technology();
  bench.tech.cap_limit = 1e9;
  Rng rng(seed);
  for (int i = 0; i < n_sinks; ++i) {
    bench.sinks.push_back(
        Sink{"s" + std::to_string(i),
             Point{rng.uniform(200, 5800), rng.uniform(200, 5800)},
             rng.uniform(5.0, 30.0)});
  }
  return bench;
}

ClockTree buffered_tree(const Benchmark& bench) {
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  return tree;
}

// ---------------------------------------------------------------------------
// Model basics
// ---------------------------------------------------------------------------

TEST(ConstraintModel, TrivialDetectionAndNormalize) {
  TimingConstraints cons;
  EXPECT_TRUE(cons.trivial());
  EXPECT_EQ(cons.num_domains(), 1u);

  // All-default per-sink vectors are logically trivial; normalize() shrinks
  // them back to the unique empty representation.
  cons.sink_domains.assign(8, 0);
  cons.sink_windows.assign(8, ArrivalWindow{});
  EXPECT_TRUE(cons.trivial());
  cons.normalize();
  EXPECT_TRUE(cons.sink_domains.empty());
  EXPECT_TRUE(cons.sink_windows.empty());
  EXPECT_EQ(cons, TimingConstraints{});

  // Any bounded window, non-zero domain, name or bound is non-trivial.
  TimingConstraints windowed;
  windowed.sink_windows.assign(4, ArrivalWindow{});
  windowed.sink_windows[2].hi = 12.0;
  EXPECT_FALSE(windowed.trivial());
  EXPECT_EQ(windowed.num_windowed_sinks(), 1u);
  windowed.normalize();
  EXPECT_EQ(windowed.sink_windows.size(), 4u);  // non-default stays

  TimingConstraints named;
  named.domain_names = {"core", "io"};
  EXPECT_FALSE(named.trivial());
  EXPECT_EQ(named.num_domains(), 2u);
}

TEST(ConstraintModel, ValidateRejectsMalformedBlocks) {
  TimingConstraints cons;
  cons.domain_names = {"core", "io"};
  cons.sink_domains = {0, 1, 0};
  EXPECT_NO_THROW(validate_constraints(cons, 3, "ok"));

  TimingConstraints bad_size = cons;
  EXPECT_THROW(validate_constraints(bad_size, 5, "size"), std::invalid_argument);

  TimingConstraints bad_index = cons;
  bad_index.sink_domains[1] = 7;
  EXPECT_THROW(validate_constraints(bad_index, 3, "index"),
               std::invalid_argument);

  TimingConstraints bad_window = cons;
  bad_window.sink_windows.assign(3, ArrivalWindow{});
  bad_window.sink_windows[0].lo = 10.0;
  bad_window.sink_windows[0].hi = 5.0;
  EXPECT_THROW(validate_constraints(bad_window, 3, "window"),
               std::invalid_argument);

  TimingConstraints bad_bound = cons;
  bad_bound.domain_bounds.push_back(DomainBound{0, 0, 5.0});  // a == b
  EXPECT_THROW(validate_constraints(bad_bound, 3, "bound"),
               std::invalid_argument);

  TimingConstraints negative_bound = cons;
  negative_bound.domain_bounds.push_back(DomainBound{0, 1, -1.0});
  EXPECT_THROW(validate_constraints(negative_bound, 3, "negative"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Text directives and the backward-compat golden contract
// ---------------------------------------------------------------------------

TEST(ConstraintText, DirectivesRoundTripThroughCanonicalText) {
  Benchmark bench = small_bench(6, 42);
  TimingConstraints& cons = bench.constraints;
  cons.domain_names = {"core", "io"};
  cons.sink_domains = {0, 1, 0, 1, 0, 0};
  cons.sink_windows.assign(6, ArrivalWindow{});
  cons.sink_windows[1] = ArrivalWindow{2.0, 18.5};
  cons.sink_windows[4].hi = 25.0;   // one-sided: lo stays -inf
  cons.sink_windows[5].lo = 1.25;   // one-sided: hi stays +inf
  cons.domain_bounds.push_back(DomainBound{0, 1, 30.0});
  cons.normalize();

  std::ostringstream out;
  write_benchmark(bench, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("domain core"), std::string::npos);
  EXPECT_NE(text.find("domain_bound core io 30"), std::string::npos);
  EXPECT_NE(text.find("sink_window 4 -inf 25"), std::string::npos);
  EXPECT_NE(text.find("sink_window 5 1.25 inf"), std::string::npos);

  std::istringstream in(text);
  const Benchmark back = read_benchmark(in, "roundtrip");
  EXPECT_EQ(back.constraints, bench.constraints);
  EXPECT_EQ(benchmark_content_hash(back).hex(),
            benchmark_content_hash(bench).hex());
}

TEST(ConstraintText, MalformedDirectivesAreRejectedWithContext) {
  Benchmark bench = small_bench(3, 7);
  std::ostringstream out;
  write_benchmark(bench, out);

  {
    // Reference to an undeclared domain.
    std::istringstream in(out.str() + "sink_domain 0 nosuch\n");
    EXPECT_THROW(read_benchmark(in, "bad"), std::runtime_error);
  }
  {
    // Inverted window (parses, then fails block validation).
    std::istringstream in(out.str() + "sink_window 0 9 3\n");
    EXPECT_THROW(read_benchmark(in, "bad"), std::exception);
  }
  {
    // Unparsable bound token.
    std::istringstream in(out.str() + "sink_window 0 abc 3\n");
    EXPECT_THROW(read_benchmark(in, "bad"), std::runtime_error);
  }
}

TEST(ConstraintGolden, StockFamiliesStayConstraintFreeAndByteIdentical) {
  // The pre-existing scenario families must keep trivial constraint blocks
  // and canonical text with no constraint directive in it — together with
  // the CI docs job (which diffs the checked-in benchmarks/ against a fresh
  // export) this pins the byte-identical backward-compat contract.
  for (const char* family :
       {"uniform", "clustered", "ring", "obstacle_dense", "high_fanout",
        "mixed_cap"}) {
    const Benchmark bench = make_scenario(family, 1, 40);
    EXPECT_TRUE(bench.constraints.trivial()) << family;
    std::ostringstream out;
    write_benchmark(bench, out);
    const std::string text = out.str();
    EXPECT_EQ(text.find("\ndomain "), std::string::npos) << family;
    EXPECT_EQ(text.find("\nsink_domain "), std::string::npos) << family;
    EXPECT_EQ(text.find("\nsink_window "), std::string::npos) << family;
    EXPECT_EQ(text.find("\ndomain_bound "), std::string::npos) << family;

    // Re-parsing the canonical text reproduces the exact content hash.
    std::istringstream in(text);
    EXPECT_EQ(benchmark_content_hash(read_benchmark(in, family)).hex(),
              benchmark_content_hash(bench).hex())
        << family;
  }
}

TEST(ConstraintGolden, NewFamiliesCarryNonTrivialValidatedConstraints) {
  const Benchmark multi = make_scenario("multidomain", 1);
  EXPECT_FALSE(multi.constraints.trivial());
  EXPECT_GE(multi.constraints.num_domains(), 2u);
  EXPECT_FALSE(multi.constraints.domain_bounds.empty());
  EXPECT_NO_THROW(validate_constraints(multi.constraints, multi.sinks.size(),
                                       "multidomain"));

  const Benchmark useful = make_scenario("usefulskew", 1);
  EXPECT_FALSE(useful.constraints.trivial());
  EXPECT_GT(useful.constraints.num_windowed_sinks(), 0u);
  EXPECT_NO_THROW(validate_constraints(useful.constraints, useful.sinks.size(),
                                       "usefulskew"));
}

TEST(ConstraintGolden, JobContentHashFoldsNonTrivialConstraintsIn) {
  SuiteOptions options;
  std::vector<Benchmark> trivial_job = {make_scenario("ring", 1, 32)};
  ASSERT_TRUE(trivial_job[0].constraints.trivial());
  const Hash128 h1 = job_content_hash(trivial_job, options);

  // Explicitly resetting the (already default) block changes nothing.
  std::vector<Benchmark> reset_job = trivial_job;
  reset_job[0].constraints = TimingConstraints{};
  EXPECT_EQ(job_content_hash(reset_job, options).hex(), h1.hex());

  // Any non-trivial block moves the key...
  std::vector<Benchmark> windowed_job = trivial_job;
  windowed_job[0].constraints.sink_windows.assign(
      windowed_job[0].sinks.size(), ArrivalWindow{});
  windowed_job[0].constraints.sink_windows[3].hi = 20.0;
  const Hash128 h2 = job_content_hash(windowed_job, options);
  EXPECT_NE(h2.hex(), h1.hex());

  // ...and the constraint *values* are part of the key.
  std::vector<Benchmark> other_window = windowed_job;
  other_window[0].constraints.sink_windows[3].hi = 21.0;
  EXPECT_NE(job_content_hash(other_window, options).hex(), h2.hex());
}

// ---------------------------------------------------------------------------
// Evaluation aggregation
// ---------------------------------------------------------------------------

TEST(ConstraintEval, LegacyMetricsAreUntouchedByAConstraintBlock) {
  Benchmark plain = small_bench(16, 21);
  const ClockTree tree = buffered_tree(plain);
  Evaluator plain_eval(plain);
  const EvalResult base = plain_eval.evaluate(tree);
  EXPECT_TRUE(base.domain_skews.empty());
  EXPECT_EQ(base.constraint_violation(), 0.0);

  Benchmark constrained = plain;
  constrained.constraints.domain_names = {"a", "b"};
  constrained.constraints.sink_domains.resize(plain.sinks.size());
  for (std::size_t i = 0; i < plain.sinks.size(); ++i) {
    constrained.constraints.sink_domains[i] =
        static_cast<std::uint32_t>(i % 2);
  }
  constrained.constraints.domain_bounds.push_back(DomainBound{0, 1, 9999.0});
  Evaluator cons_eval(constrained);
  const EvalResult got = cons_eval.evaluate(tree);

  // Same tree, same numbers — the constraint pass only *adds* metrics.
  EXPECT_EQ(got.nominal_skew, base.nominal_skew);
  EXPECT_EQ(got.clr, base.clr);
  EXPECT_EQ(got.max_latency, base.max_latency);
  EXPECT_EQ(got.worst_slew, base.worst_slew);
  EXPECT_EQ(got.total_cap, base.total_cap);
  EXPECT_EQ(got.legal(), base.legal());
  ASSERT_EQ(got.domain_skews.size(), 2u);
  EXPECT_TRUE(got.constraints_met());  // 9999 ps bound trivially holds

  // Per-domain skews against a direct recomputation at the nominal corner.
  for (int d = 0; d < 2; ++d) {
    double expected = 0.0;
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sinks = got.corners[0].sinks[static_cast<std::size_t>(t)];
      double lo = kIeeeInf, hi = -kIeeeInf;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (static_cast<int>(s % 2) != d || !sinks[s].reached) continue;
        lo = std::min(lo, sinks[s].latency);
        hi = std::max(hi, sinks[s].latency);
      }
      if (hi >= lo) expected = std::max(expected, hi - lo);
    }
    EXPECT_DOUBLE_EQ(got.domain_skews[static_cast<std::size_t>(d)], expected);
  }
}

TEST(ConstraintEval, WindowViolationIsTheWorstOverAllCornersAndTransitions) {
  Benchmark bench = small_bench(12, 33);
  const ClockTree tree = buffered_tree(bench);
  Evaluator plain_eval(bench);
  const EvalResult base = plain_eval.evaluate(tree);

  // Cap the relative arrival of every sink at 1 ps — with >1 ps of skew
  // somewhere, at least one sink violates; the worst violation equals
  // (max relative arrival - 1) over all (corner, transition).
  double expected = 0.0;
  for (const CornerTiming& corner : base.corners) {
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sinks = corner.sinks[static_cast<std::size_t>(t)];
      double lo = kIeeeInf, hi = -kIeeeInf;
      for (const SinkTiming& s : sinks) {
        if (!s.reached) continue;
        lo = std::min(lo, s.latency);
        hi = std::max(hi, s.latency);
      }
      if (hi >= lo) expected = std::max(expected, (hi - lo) - 1.0);
    }
  }
  ASSERT_GT(expected, 0.0) << "fixture tree has <1 ps of skew everywhere";

  Benchmark windowed = bench;
  windowed.constraints.sink_windows.assign(bench.sinks.size(),
                                           ArrivalWindow{});
  for (ArrivalWindow& w : windowed.constraints.sink_windows) w.hi = 1.0;
  Evaluator cons_eval(windowed);
  const EvalResult got = cons_eval.evaluate(tree);
  EXPECT_DOUBLE_EQ(got.worst_window_violation, expected);
  EXPECT_FALSE(got.constraints_met());
  EXPECT_TRUE(got.legal());  // windows are a separate axis from legality
}

// ---------------------------------------------------------------------------
// Monte-Carlo yield under constraints
// ---------------------------------------------------------------------------

TEST(ConstraintMc, YieldCountsWindowViolatingTrialsAsFailures) {
  Benchmark bench = small_bench(12, 5);
  const ClockTree tree = buffered_tree(bench);

  McOptions options;
  options.trials = 24;
  options.threads = 1;
  options.skew_target = 1e9;  // never binding: isolate the constraint axis
  VariationModel model;

  const McReport base = run_montecarlo(bench, tree, model, options);
  EXPECT_FALSE(base.constrained);
  ASSERT_GT(base.yield, 0.0);
  for (const McTrial& t : base.samples) {
    EXPECT_EQ(t.constraint_violation, 0.0);
  }

  // An impossible window (every relative arrival capped at 0 while the
  // tree has skew) fails every trial even though legality and the skew
  // target still hold.
  Benchmark impossible = bench;
  impossible.constraints.sink_windows.assign(bench.sinks.size(),
                                             ArrivalWindow{});
  for (ArrivalWindow& w : impossible.constraints.sink_windows) w.hi = 0.0;
  const McReport windowed = run_montecarlo(impossible, tree, model, options);
  EXPECT_TRUE(windowed.constrained);
  EXPECT_EQ(windowed.yield, 0.0);
  EXPECT_EQ(windowed.legal_fraction, base.legal_fraction);
  ASSERT_EQ(windowed.samples.size(), base.samples.size());
  for (std::size_t i = 0; i < windowed.samples.size(); ++i) {
    EXPECT_GT(windowed.samples[i].constraint_violation, 0.0);
    // The variation engine itself is untouched: identical skews per trial.
    EXPECT_EQ(windowed.samples[i].skew, base.samples[i].skew);
  }

  // A generous window changes no trial outcome.
  Benchmark loose = bench;
  loose.constraints.sink_windows.assign(bench.sinks.size(), ArrivalWindow{});
  for (ArrivalWindow& w : loose.constraints.sink_windows) w.hi = 1e6;
  const McReport easy = run_montecarlo(loose, tree, model, options);
  EXPECT_TRUE(easy.constrained);
  EXPECT_EQ(easy.yield, base.yield);
}

// ---------------------------------------------------------------------------
// The generalized IVC gate
// ---------------------------------------------------------------------------

TEST(IvcGate, RejectsSkewImprovementThatWorsensAWindowViolation) {
  // violation_ok is the shared violation half of both try_accept overloads;
  // exercise its constraint axis directly with synthetic evaluations.
  const Benchmark bench = make_scenario("ring", 1, 16);
  FlowContext ctx(bench, FlowOptions{});

  EvalResult incumbent;  // clean: no violations, constraints met
  incumbent.nominal_skew = 10.0;
  ctx.restore_current(incumbent);

  EvalResult candidate;
  candidate.nominal_skew = 2.0;           // much better global skew...
  candidate.worst_window_violation = 3.0;  // ...but violates a sink window
  EXPECT_FALSE(ctx.violation_ok(candidate));

  candidate.worst_window_violation = 0.0;
  EXPECT_TRUE(ctx.violation_ok(candidate));

  candidate.worst_domain_bound_violation = 1.5;
  EXPECT_FALSE(ctx.violation_ok(candidate));

  // An already-violating network must still be allowed to improve (and
  // must not get worse).
  incumbent.worst_window_violation = 5.0;
  ctx.restore_current(incumbent);
  candidate = EvalResult{};
  candidate.worst_window_violation = 4.0;
  EXPECT_TRUE(ctx.violation_ok(candidate));
  candidate.worst_window_violation = 6.0;
  EXPECT_FALSE(ctx.violation_ok(candidate));
}

TEST(IvcGate, TryAcceptRejectsARealTreeThatBreaksItsWindows) {
  // End-to-end acceptance lock: a candidate tree with strictly better
  // global skew is still rejected when it violates a sink window.
  const Benchmark bench = make_scenario("ring", 1, 48);

  FlowOptions construction_only;
  construction_only.pipeline = "dme,repair,insert,polarity";
  const FlowResult base = run_contango(bench, construction_only);
  const FlowResult optimized = run_contango(bench);
  ASSERT_LT(optimized.eval.nominal_skew, base.eval.nominal_skew);

  // Fit tight windows around the *construction* tree's relative arrivals
  // over every (corner, transition): the base tree satisfies them by
  // construction, and the optimized tree — whose arrival pattern moved —
  // does not.
  const std::size_t n = bench.sinks.size();
  std::vector<double> r_min(n, kIeeeInf), r_max(n, -kIeeeInf);
  for (const CornerTiming& corner : base.eval.corners) {
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sinks = corner.sinks[static_cast<std::size_t>(t)];
      double global_lo = kIeeeInf;
      for (const SinkTiming& s : sinks) {
        if (s.reached) global_lo = std::min(global_lo, s.latency);
      }
      for (std::size_t s = 0; s < n; ++s) {
        if (!sinks[s].reached) continue;
        const double r = sinks[s].latency - global_lo;
        r_min[s] = std::min(r_min[s], r);
        r_max[s] = std::max(r_max[s], r);
      }
    }
  }
  Benchmark windowed = bench;
  windowed.constraints.sink_windows.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    windowed.constraints.sink_windows[s] =
        ArrivalWindow{r_min[s] - 0.25, r_max[s] + 0.25};
  }

  // Precondition: the skew-optimized tree really does violate the windows.
  Evaluator checker(windowed);
  const EvalResult optimized_under_windows = checker.evaluate(optimized.tree);
  ASSERT_GT(optimized_under_windows.worst_window_violation, 0.0);

  FlowContext ctx(windowed, construction_only);
  ctx.tree = base.tree;
  ctx.ensure_initial();
  ASSERT_TRUE(ctx.has_current());
  ASSERT_TRUE(ctx.current().constraints_met());
  const Ps incumbent_skew = ctx.current().nominal_skew;

  ClockTree candidate = optimized.tree;
  EXPECT_FALSE(ctx.try_accept(std::move(candidate), PassObjective::kSkew));
  // The incumbent survived untouched.
  EXPECT_TRUE(ctx.current().constraints_met());
  EXPECT_EQ(ctx.current().nominal_skew, incumbent_skew);

  // Control: with the windows relaxed the same candidate is accepted —
  // the rejection above was the constraint axis, not the skew axis.
  Benchmark relaxed = bench;
  relaxed.constraints.sink_windows.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    relaxed.constraints.sink_windows[s] =
        ArrivalWindow{r_min[s] - 1e6, r_max[s] + 1e6};
  }
  FlowContext loose_ctx(relaxed, construction_only);
  loose_ctx.tree = base.tree;
  loose_ctx.ensure_initial();
  ClockTree candidate2 = optimized.tree;
  EXPECT_TRUE(loose_ctx.try_accept(std::move(candidate2), PassObjective::kSkew));
}

}  // namespace
}  // namespace contango
