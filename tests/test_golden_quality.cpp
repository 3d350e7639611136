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
// oracle), and IVC decisions follow.
const FlowGolden kFlowGolden[] = {
    {"clustered_s1.bench",
     "skew=0x1.077bbe72ecc8p+2 clr=0x1.0f5edcf2bfffp+5 cap=0x1.79a11429d4fa9p+16 slew=0x1.3f4a7f892b3b2p+6"
     " sinks=baf7a466fe1cfd47 sim_runs=34 stage_evals=15460"},
    {"high_fanout_s1.bench",
     "skew=0x1.8281c453ff2p+2 clr=0x1.08836c2e39cdp+5 cap=0x1.182983a67d905p+17 slew=0x1.777e1bb0438e9p+6"
     " sinks=79355c61aa73e9f8 sim_runs=38 stage_evals=30623"},
    {"mixed_cap_s1.bench",
     "skew=0x1.501e582968fp+3 clr=0x1.4a1e7580f484p+5 cap=0x1.8a5fd31a2bea5p+16 slew=0x1.670cff2eb92c2p+6"
     " sinks=bcb14462da58d5ad sim_runs=31 stage_evals=19624"},
    {"multidomain_s1.bench",
     "skew=0x1.c1e3eeecce4p+2 clr=0x1.2ec8b6635375p+5 cap=0x1.663be4608cc54p+16 slew=0x1.61c00a0776de3p+6"
     " sinks=2cb56673d963b2fd sim_runs=32 stage_evals=15632"},
    {"obstacle_dense_s1.bench",
     "skew=0x1.4afc5d0d5658p+6 clr=0x1.87febe2e7c478p+7 cap=0x1.853b62cd5c1e5p+16 slew=0x1.2896ef9870512p+8"
     " sinks=25a4265a265f0f03 sim_runs=16 stage_evals=7023"},
    {"ring_s1.bench",
     "skew=0x1.53cd83b5c59cp+3 clr=0x1.5bfe4ecae3d1p+5 cap=0x1.16edc7311eda4p+16 slew=0x1.b39aa95eecbe2p+6"
     " sinks=3c67b0abb35f20a2 sim_runs=36 stage_evals=20619"},
    {"uniform_s1.bench",
     "skew=0x1.36b34c928dap+4 clr=0x1.118d2631cc3cp+6 cap=0x1.4dbcbb6b9406fp+16 slew=0x1.dff5c685b6d5ep+6"
     " sinks=e63995a754bcf728 sim_runs=31 stage_evals=25611"},
    {"usefulskew_s1.bench",
     "skew=0x1.dca837f2a3e8p+4 clr=0x1.50bddb3932c98p+7 cap=0x1.7fde9246c2a4cp+16 slew=0x1.20860e774d0c4p+9"
     " sinks=c86ae61ab39517ee sim_runs=25 stage_evals=13372"},
};

const char* const kMonteCarloGolden =
    "skew=0x1.26bcde2ec064p+4 clr=0x1.2c5c681c387e8p+5 cap=0x1.2e068a4b10b89p+17 slew=0x1.ba3744e494147p+6 sinks=de015ddb7bddfcc0"
    " trials=7e8fc32a9acee656 yield=0x1.cp-1 skew_p99=0x1.9a9c63d79227p+4 stage_evals=74184";

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
