// "Table VI" — an extension beyond the paper: Monte-Carlo variation
// analysis of synthesized clock networks, the way the ISPD'09/'10 contests
// actually judged entries (worst skew and CLR over many randomized trials
// under supply variation) rather than the handful of fixed corners the
// deterministic tables use.
//
// For every workload the full Contango flow runs first, then the variation
// engine (analysis/montecarlo.h) perturbs the finished network
// CONTANGO_MC_TRIALS times: per-buffer-stage Vdd deviates
// (CONTANGO_MC_SIGMA_VDD, fraction of vdd_nom), global wire R/C scaling and
// per-sink load jitter (CONTANGO_MC_SIGMA_WIRE / CONTANGO_MC_SIGMA_SINK).
// Reported per benchmark: nominal skew/CLR next to the trial distribution
// (mean, sigma, p95, p99, max) and yield against CONTANGO_MC_SKEW_TARGET.
//
// Results are bit-identical for any CONTANGO_THREADS value: trials draw
// from per-trial RNG substreams and statistics merge in fixed block order.
//
// Knobs: CONTANGO_WORKLOADS (collect_workloads spec, default
// "uniform,ring,clustered"), CONTANGO_SEED, CONTANGO_MC_TRIALS (default
// 64), CONTANGO_MC_SEED, CONTANGO_JSON_OUT=<file> for the machine-readable
// report.  Examples:
//
//   CONTANGO_MC_TRIALS=256 ./bench_table6_variation
//   CONTANGO_WORKLOADS=benchmarks CONTANGO_JSON_OUT=mc.json ./bench_table6_variation

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "cts/scenario.h"
#include "cts/suite.h"
#include "io/table.h"
#include "util/env.h"
#include "util/signal.h"

using namespace contango;

int main() {
  SuiteOptions options;
  options.mc_trials = 64;  // before env so CONTANGO_MC_TRIALS overrides
  std::string spec;
  std::uint64_t seed = 1;
  try {
    options = suite_options_from_env(options);
    options.variation.sigma_wire_r = env_double("CONTANGO_MC_SIGMA_WIRE", 0.03);
    if (options.variation.sigma_wire_r < 0.0) {
      throw std::runtime_error("CONTANGO_MC_SIGMA_WIRE must be >= 0");
    }
    options.variation.sigma_wire_c = options.variation.sigma_wire_r;
    options.variation.sigma_sink_cap =
        env_double("CONTANGO_MC_SIGMA_SINK", 0.02);
    if (options.variation.sigma_sink_cap < 0.0) {
      throw std::runtime_error("CONTANGO_MC_SIGMA_SINK must be >= 0");
    }
    spec = env_string("CONTANGO_WORKLOADS", "uniform,ring,clustered");
    seed = static_cast<std::uint64_t>(env_long("CONTANGO_SEED", 1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  if (options.mc_trials <= 0) {
    std::fprintf(stderr, "CONTANGO_MC_TRIALS must be positive for this bench\n");
    return 1;
  }
  // ^C / SIGTERM stop the study at the next benchmark/pass boundary; the
  // finished rows and the JSON report survive.
  install_signal_cancel();
  options.flow.cancel = signal_cancel_token();

  std::printf("== Table VI (extension): Monte-Carlo variation analysis ==\n");
  std::printf("(%d trials/bench; sigma_vdd %.3f, sigma_wire %.3f, "
              "sigma_sink %.3f; skew target %.1f ps)\n\n",
              options.mc_trials, options.variation.sigma_vdd,
              options.variation.sigma_wire_r, options.variation.sigma_sink_cap,
              options.mc_skew_target);

  SuiteReport report;
  try {
    report = run_suite_spec(spec, seed, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table6_variation: %s\n", e.what());
    return 1;
  }

  std::printf("%s", report.table().c_str());

  TextTable detail({"Benchmark", "Nom skew", "MC mean", "MC sigma", "MC p95",
                    "MC p99", "MC max", "Nom CLR", "CLR p99", "Yield%", "Legal%"});
  for (const SuiteRun& run : report.runs) {
    if (!run.ok || !run.has_mc) continue;
    const McReport& mc = run.mc;
    detail.add_row({run.benchmark,
                    TextTable::num(mc.nominal.nominal_skew, 3),
                    TextTable::num(mc.skew.mean, 3),
                    TextTable::num(mc.skew.stddev, 3),
                    TextTable::num(mc.skew.p95, 3),
                    TextTable::num(mc.skew.p99, 3),
                    TextTable::num(mc.skew.max, 3),
                    TextTable::num(mc.nominal.clr, 2),
                    TextTable::num(mc.clr.p99, 2),
                    TextTable::num(100.0 * mc.yield, 1),
                    TextTable::num(100.0 * mc.legal_fraction, 1)});
  }
  std::printf("\n(skew/CLR in ps)\n%s", detail.to_string().c_str());
  std::printf("\n%d threads, %.1f s wall, %ld sims total\n", report.threads,
              report.wall_seconds, report.total_sim_runs());
  if (!options.json_report_path.empty()) {
    std::printf("JSON report written to %s\n", options.json_report_path.c_str());
  }
  if (signal_cancel_token().cancelled()) {
    std::fprintf(stderr, "bench_table6_variation: interrupted; partial "
                         "results above\n");
    return 128 + signal_received();
  }
  return report.all_ok() ? 0 : 1;
}
