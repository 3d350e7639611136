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
// field kept its bits.
const FlowGolden kFlowGolden[] = {
    {"clustered_s1.bench",
     "skew=0x1.0776535e3b88p+2 clr=0x1.0f77a19453b7p+5 cap=0x1.79721429d4fa9p+16 slew=0x1.3f541e844a056p+6"
     " sinks=44a8bed36a27ec47 sim_runs=34 stage_evals=15376"},
    {"high_fanout_s1.bench",
     "skew=0x1.316ef7ea0dbcp+3 clr=0x1.11b181006d3fp+5 cap=0x1.0d13c3a67d90bp+17 slew=0x1.69a6103167597p+6"
     " sinks=3b8d72a9b8dd00d8 sim_runs=38 stage_evals=35198"},
    {"mixed_cap_s1.bench",
     "skew=0x1.4fdc5c08087p+3 clr=0x1.4a175d845f18p+5 cap=0x1.8a5b531a2bea5p+16 slew=0x1.671c17d81b106p+6"
     " sinks=b8eb6643204cfe09 sim_runs=31 stage_evals=19290"},
    {"multidomain_s1.bench",
     "skew=0x1.c175aa9a28ep+2 clr=0x1.2ec6d3ced0d3p+5 cap=0x1.663764608cc54p+16 slew=0x1.61cd16577da23p+6"
     " sinks=31d35471c5102234 sim_runs=32 stage_evals=15476"},
    {"obstacle_dense_s1.bench",
     "skew=0x1.4b0c6ad0e883p+6 clr=0x1.88070ff45bep+7 cap=0x1.853b62cd5c1e5p+16 slew=0x1.289720e1e46cep+8"
     " sinks=24d083b02b9e0c35 sim_runs=16 stage_evals=5859"},
    {"ring_s1.bench",
     "skew=0x1.5ed7384a62d8p+3 clr=0x1.5f217a1ce48ep+5 cap=0x1.171dc7311eda5p+16 slew=0x1.a80e23370d2dfp+6"
     " sinks=dee700fdd700e9a1 sim_runs=36 stage_evals=20904"},
    {"uniform_s1.bench",
     "skew=0x1.3c7e0531a26cp+4 clr=0x1.11341c12fae5p+6 cap=0x1.4e88bb6b9406fp+16 slew=0x1.deb08b758423cp+6"
     " sinks=1cbb386066be1827 sim_runs=32 stage_evals=25425"},
    {"usefulskew_s1.bench",
     "skew=0x1.db665019d708p+4 clr=0x1.5090ea820d0c8p+7 cap=0x1.804c1246c2a4ap+16 slew=0x1.2086180dff876p+9"
     " sinks=574f8378034d0dc0 sim_runs=25 stage_evals=13326"},
};

const char* const kMonteCarloGolden =
    "skew=0x1.26c946cf2b2ep+4 clr=0x1.2c6bdab0cef6p+5 cap=0x1.2e2d8a4b10b87p+17 slew=0x1.ba42bc6c2ca49p+6 sinks=b0ab47053aadbb2b"
    " trials=ad844ae3fb67ccab yield=0x1.cp-1 skew_p99=0x1.9ab2b137fd5bp+4 stage_evals=74184";

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
