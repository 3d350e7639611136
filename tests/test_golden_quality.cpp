// Golden bit-identity: the quality figures of the stock flows and of one
// Monte-Carlo run, pinned as hex-float constants.  The other identity
// tests compare two paths of the same build, so a change that shifts both
// paths alike passes them; this one compares against recorded values.
//
// Every number is printed with "%a", so one ULP of drift fails.  On a
// failure the expected and actual lines are printed side by side; a change
// that moves results on purpose must re-record them and say why.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/montecarlo.h"
#include "cts/flow.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/hash.h"

namespace contango {
namespace {

std::string hexf(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string hex64(std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

/// FNV-1a over the IEEE bits of `x`, least significant byte first (the
/// digest does not depend on the host's byte order).
std::uint64_t hash_double(double x, std::uint64_t state) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(bits >> (8 * i));
  return fnv1a64(bytes, sizeof bytes, state);
}

/// Digest of every sink's latency and slew, per corner and transition.
std::uint64_t sink_digest(const EvalResult& eval) {
  std::uint64_t h = kFnv64Offset;
  for (const CornerTiming& corner : eval.corners) {
    for (const auto& per_transition : corner.sinks) {
      for (const SinkTiming& s : per_transition) {
        h = hash_double(s.latency, h);
        h = hash_double(s.slew, h);
      }
    }
  }
  return h;
}

std::string eval_line(const EvalResult& eval) {
  return "skew=" + hexf(eval.nominal_skew) + " clr=" + hexf(eval.clr) +
         " cap=" + hexf(eval.total_cap) + " slew=" + hexf(eval.worst_slew) +
         " sinks=" + hex64(sink_digest(eval));
}

struct FlowGolden {
  const char* file;
  const char* line;
};

// Recorded with the one-drive-at-a-time integrator, before the kernel
// integrated a stage's drives as interleaved lanes.  The stage_evals of
// obstacle_dense and usefulskew were re-recorded when the IVC gate began
// to reject certain failures before or part-way through their sweeps
// (17770 -> 8926 and 15012 -> 14700); every other field kept its bits.
// Every stage_evals was re-recorded again when the wire passes' calibration
// probes moved onto the incremental engine and a rejected candidate began
// to leave that engine's cache as it found it (16420 -> 15376,
// 38308 -> 35198, 21781 -> 19290, 16692 -> 15476, 8926 -> 5859,
// 22440 -> 20904, 27698 -> 25425, 14700 -> 13326); again every other
// field kept its bits.  Every line, the Monte-Carlo one included, was
// re-recorded when the transient kernel aligned its step grid to the
// driver ramp, took crossings from cubic Hermite fits and moved its
// default time_step_div from 80 to 32: every timing moves by design
// (test_transient_accuracy bounds the kernel's error against a fine-step
// oracle), and IVC decisions follow.  Every line was re-recorded once more
// when the slew a buffer tap hands its child stage began to be rounded to
// a multiple of 2^-30 ps (quantize_stage_slew), so that the incremental
// cache replays a stage whose input moved only in its last bits: skew,
// CLR, worst slew and the sink digests move in their last bits, every
// sim_runs and cap keeps its value, and stage_evals fall (15460 -> 14440,
// 30623 -> 27379, 19624 -> 15964, 15632 -> 11437, 7023 -> 4480,
// 20619 -> 19438, 25611 -> 18320, 13372 -> 11684); the Monte-Carlo
// stage_evals (no cache) keep their value.
const FlowGolden kFlowGolden[] = {
    {"clustered_s1.bench",
     "skew=0x1.077bbe72449p+2 clr=0x1.0f5edcf29d7fp+5 cap=0x1.79a11429d4fa9p+16 slew=0x1.3f4a7f892ad8bp+6"
     " sinks=d1bc9b19f1560fe1 sim_runs=34 stage_evals=14440"},
    {"high_fanout_s1.bench",
     "skew=0x1.8281c452cb7p+2 clr=0x1.08836c2e5978p+5 cap=0x1.182983a67d905p+17 slew=0x1.777e1bb042eabp+6"
     " sinks=e1786631242ed988 sim_runs=38 stage_evals=27379"},
    {"mixed_cap_s1.bench",
     "skew=0x1.501e58290d18p+3 clr=0x1.4a1e75810ec9p+5 cap=0x1.8a5fd31a2bea5p+16 slew=0x1.670cff2eb9aeep+6"
     " sinks=4a558d6f11dfbd0c sim_runs=31 stage_evals=15964"},
    {"multidomain_s1.bench",
     "skew=0x1.c1e3eee8deap+2 clr=0x1.2ec8b6639adap+5 cap=0x1.663be4608cc54p+16 slew=0x1.61c00a0777b34p+6"
     " sinks=d2826f954d61481e sim_runs=32 stage_evals=11437"},
    {"obstacle_dense_s1.bench",
     "skew=0x1.4afc5d0d49f4p+6 clr=0x1.87febe2b6c768p+7 cap=0x1.853b62cd5c1e5p+16 slew=0x1.2896ef986fc94p+8"
     " sinks=5e24d2bcafaa36a2 sim_runs=16 stage_evals=4480"},
    {"ring_s1.bench",
     "skew=0x1.53cd83b650a4p+3 clr=0x1.5bfe4ecb03b4p+5 cap=0x1.16edc7311eda4p+16 slew=0x1.b39aa95eec6bcp+6"
     " sinks=418f0116c6e4125b sim_runs=36 stage_evals=19438"},
    {"uniform_s1.bench",
     "skew=0x1.36b34c9185d4p+4 clr=0x1.118d2631e6c3p+6 cap=0x1.4dbcbb6b9406fp+16 slew=0x1.dff5c685b66f2p+6"
     " sinks=f85c52e11bb9f692 sim_runs=31 stage_evals=18320"},
    {"usefulskew_s1.bench",
     "skew=0x1.dca837f2e68p+4 clr=0x1.50bddb393251p+7 cap=0x1.7fde9246c2a4cp+16 slew=0x1.20860e774cf1ap+9"
     " sinks=6b7ba794f21cc7eb sim_runs=25 stage_evals=11684"},
};

const char* const kMonteCarloGolden =
    "skew=0x1.26bcde2e9c18p+4 clr=0x1.2c5c681c28c48p+5 cap=0x1.2e068a4b10b89p+17 slew=0x1.ba3744e493d94p+6 sinks=95f599673de298a0"
    " trials=df5fbed8173a08f1 yield=0x1.cp-1 skew_p99=0x1.9a9c63d7963ap+4 stage_evals=74184";

TEST(GoldenQuality, StockFlowsMatchTheRecordedBits) {
  for (const FlowGolden& golden : kFlowGolden) {
    SCOPED_TRACE(golden.file);
    const Benchmark bench = read_benchmark_file(
        std::string(CONTANGO_SOURCE_DIR) + "/benchmarks/" + golden.file);
    const FlowResult r = run_contango(bench);
    const std::string line =
        eval_line(r.eval) + " sim_runs=" + std::to_string(r.sim_runs) +
        " stage_evals=" +
        std::to_string(r.batched_stage_evals + r.scalar_stage_evals);
    EXPECT_EQ(line, golden.line);
  }
}

TEST(GoldenQuality, MonteCarloMatchesTheRecordedBits) {
  const Benchmark bench = generate_ti_like(2000, 77);
  const FlowResult flow = run_contango(bench);
  VariationModel model;
  model.sigma_vdd = 0.05;
  model.sigma_wire_r = 0.03;
  model.sigma_wire_c = 0.03;
  model.sigma_sink_cap = 0.02;
  model.seed = 1;
  McOptions options;
  options.trials = 32;
  options.threads = 2;
  options.skew_target = 22.0;
  const McReport r = run_montecarlo(bench, flow.tree, model, options);

  std::uint64_t trials = kFnv64Offset;
  for (const McTrial& t : r.samples) {
    trials = hash_double(t.skew, trials);
    trials = hash_double(t.clr, trials);
    trials = hash_double(t.max_latency, trials);
    trials = hash_double(t.worst_slew, trials);
  }
  const std::string line =
      eval_line(r.nominal) + " trials=" + hex64(trials) +
      " yield=" + hexf(r.yield) + " skew_p99=" + hexf(r.skew.p99) +
      " stage_evals=" +
      std::to_string(r.batched_stage_evals + r.scalar_stage_evals);
  EXPECT_EQ(line, kMonteCarloGolden);
}

}  // namespace
}  // namespace contango
