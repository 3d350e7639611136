// Accuracy of the transient kernel at its default step, against the same
// kernel at time_step_div 640 as the oracle.  The final tree of the
// default flow on each stock benchmark is evaluated both ways; every
// sink's latency and slew (each corner and transition), the nominal skew
// and the CLR are compared.  The bounds are the errors of the scheme this
// kernel replaced (unaligned grid, linear crossing interpolation, divisor
// 80) against the same kind of oracle, so the coarser default step may not
// cost accuracy in latency, skew or CLR; slew, whose error does grow (0.010
// to 0.035 ps), has its own bound.  docs/ARCHITECTURE.md ("Step grid,
// crossings and accuracy") holds the table for each scheme and divisor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/evaluate.h"
#include "cts/flow.h"
#include "netlist/io.h"

namespace contango {
namespace {

constexpr double kOracleDiv = 640.0;
constexpr Ps kMaxLatencyError = 0.111;
constexpr Ps kMaxSkewError = 0.0107;
constexpr Ps kMaxClrError = 0.0109;
constexpr Ps kMaxSlewError = 0.05;

struct Errors {
  Ps latency = 0.0, skew = 0.0, clr = 0.0, slew = 0.0;
};

Errors compare(const EvalResult& a, const EvalResult& oracle) {
  Errors e;
  for (std::size_t c = 0; c < oracle.corners.size(); ++c) {
    for (std::size_t t = 0; t < oracle.corners[c].sinks.size(); ++t) {
      const auto& got = a.corners[c].sinks[t];
      const auto& want = oracle.corners[c].sinks[t];
      for (std::size_t s = 0; s < want.size(); ++s) {
        EXPECT_EQ(got[s].reached, want[s].reached);
        e.latency = std::max(e.latency, std::fabs(got[s].latency - want[s].latency));
        e.slew = std::max(e.slew, std::fabs(got[s].slew - want[s].slew));
      }
    }
  }
  e.skew = std::fabs(a.nominal_skew - oracle.nominal_skew);
  e.clr = std::fabs(a.clr - oracle.clr);
  return e;
}

TEST(TransientAccuracy, DefaultStepStaysWithinTheOldSchemesErrorOnStockTrees) {
  const char* const kFamilies[] = {"clustered",   "high_fanout",    "huge", "mega",
                                   "mixed_cap",   "multidomain",    "obstacle_dense",
                                   "ring",        "uniform",        "usefulskew"};
  Errors worst;
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const Benchmark bench = read_benchmark_file(std::string(CONTANGO_SOURCE_DIR) +
                                                "/benchmarks/" + family + "_s1.bench");
    const FlowResult flow = run_contango(bench);
    EvalOptions fine;
    fine.transient.time_step_div = kOracleDiv;
    const EvalResult oracle = Evaluator(bench, fine).evaluate(flow.tree);
    const EvalResult coarse = Evaluator(bench).evaluate(flow.tree);
    const Errors e = compare(coarse, oracle);
    std::printf("%-15s latency %.4f  skew %.4f  clr %.4f  slew %.4f ps\n", family,
                e.latency, e.skew, e.clr, e.slew);
    worst.latency = std::max(worst.latency, e.latency);
    worst.skew = std::max(worst.skew, e.skew);
    worst.clr = std::max(worst.clr, e.clr);
    worst.slew = std::max(worst.slew, e.slew);
  }
  std::printf("%-15s latency %.4f  skew %.4f  clr %.4f  slew %.4f ps\n", "worst",
              worst.latency, worst.skew, worst.clr, worst.slew);
  EXPECT_LE(worst.latency, kMaxLatencyError);
  EXPECT_LE(worst.skew, kMaxSkewError);
  EXPECT_LE(worst.clr, kMaxClrError);
  EXPECT_LE(worst.slew, kMaxSlewError);
}

}  // namespace
}  // namespace contango
