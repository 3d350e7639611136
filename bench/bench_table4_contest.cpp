// Reproduces Table IV of the paper: final CLR, capacitance usage (% of the
// benchmark limit) and runtime of Contango against weaker flows on the
// seven-benchmark suite.  The ISPD'09 contest teams' binaries are not
// available; a ladder of three baseline flows spans the same qualitative
// range (see docs/ARCHITECTURE.md).  Each baseline is a prefix of the
// Contango pipeline, run by the same engine and IVC gate:
//
//   CONSTR  dme,repair,insert:max_ladder=1,polarity   (construction only)
//   WSIZE   CONSTR,twsz:rounds=1                      (one wiresizing round)
//   TUNED   WSIZE,twsn:rounds=1                       (plus one snaking round)
//
// Shape to match: Contango's average CLR is a multiple (the paper: 2.15x -
// 3.99x) better than the baselines at comparable capacitance, and every
// benchmark completes within the capacitance limit.
//
// Each of the four columns is one suite-runner pass over the benchmarks on
// CONTANGO_THREADS workers (default: hardware concurrency).  Row order
// matches the serial version exactly.  CONTANGO_PIPELINE, the Monte-Carlo
// knobs and CONTANGO_JSON_OUT apply to the Contango column alone.
//
// The workload defaults to the seven generated cns01..cns07 entries
// (CONTANGO_TABLE4_BENCHMARKS caps how many).  Set CONTANGO_WORKLOADS to a
// collect_workloads() spec — registered scenario families, .bench files,
// or directories of them — to run the same four-flow comparison on any
// workload, e.g.:
//
//   CONTANGO_WORKLOADS=benchmarks ./bench_table4_contest
//   CONTANGO_WORKLOADS=ring,obstacle_dense:200 CONTANGO_SEED=7 ./bench_table4_contest

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "cts/scenario.h"
#include "cts/suite.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/signal.h"

using namespace contango;

int main() {
  long limit = 0;
  std::string workloads;
  std::uint64_t seed = 1;
  // CONTANGO_THREADS, CONTANGO_PIPELINE, CONTANGO_MC_TRIALS/
  // CONTANGO_MC_SIGMA_VDD (optional per-benchmark Monte-Carlo pass) and
  // CONTANGO_JSON_OUT (machine-readable report for CI perf tracking).
  SuiteOptions options;
  try {
    limit = env_long("CONTANGO_TABLE4_BENCHMARKS", 7);
    workloads = env_string("CONTANGO_WORKLOADS", "");
    seed = static_cast<std::uint64_t>(env_long("CONTANGO_SEED", 1));
    options = suite_options_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  std::printf("== Table IV: results on the CNS benchmark suite ==\n");
  std::printf("(CLR in ps; Cap in %% of the benchmark limit; CPU in s)\n\n");

  // ^C / SIGTERM stop the suite at the next safe boundary instead of
  // killing the process mid-write; the partial table and JSON report
  // (remaining rows marked CANCELLED) still come out.
  install_signal_cancel();
  options.flow.cancel = signal_cancel_token();

  std::vector<Benchmark> suite;
  if (!workloads.empty()) {
    try {
      suite = collect_workloads(workloads, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "CONTANGO_WORKLOADS: %s\n", e.what());
      return 1;
    }
  } else {
    for (int i = 0; i < static_cast<int>(limit) && i < 7; ++i) {
      suite.push_back(generate_ispd_like(ispd09_suite_params(i)));
    }
  }
  SuiteReport contango;
  try {
    contango = run_suite(suite, options);
  } catch (const std::exception& e) {  // e.g. CONTANGO_JSON_OUT unwritable
    std::fprintf(stderr, "bench_table4_contest: %s\n", e.what());
    return 1;
  }

  if (signal_cancel_token().cancelled()) {
    std::printf("%s\n", contango.table().c_str());
    std::fprintf(stderr, "bench_table4_contest: interrupted; partial "
                         "Contango results above, baselines skipped\n");
    return 128 + signal_received();
  }

  // Columns in table order: Contango, then TUNED, WSIZE and CONSTR, each
  // baseline spec extending the next one.
  const std::string constr_spec = "dme,repair,insert:max_ladder=1,polarity";
  const std::string wsize_spec = constr_spec + ",twsz:rounds=1";
  const std::string tuned_spec = wsize_spec + ",twsn:rounds=1";
  std::vector<SuiteReport> columns;
  columns.push_back(std::move(contango));
  SuiteOptions baseline_options = options;
  baseline_options.mc_trials = 0;
  baseline_options.json_report_path.clear();
  try {
    for (const std::string& spec : {tuned_spec, wsize_spec, constr_spec}) {
      baseline_options.flow.pipeline = spec;
      columns.push_back(run_suite(suite, baseline_options));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_table4_contest: %s\n", e.what());
    return 1;
  }

  TextTable table({"Benchmark", "CONTANGO CLR", "Cap%", "CPU", "TUNED CLR",
                   "Cap%", "WSIZE CLR", "Cap%", "CONSTR CLR", "Cap%"});

  std::vector<double> clr_sum(columns.size(), 0.0);
  double skew_sum = 0.0;
  int averaged_rows = 0;
  bool all_ok = true;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Benchmark& bench = suite[i];
    const SuiteRun* failed = nullptr;
    for (const SuiteReport& column : columns) {
      if (failed == nullptr && !column.runs[i].ok) failed = &column.runs[i];
    }
    if (failed != nullptr) {
      all_ok = false;
      table.add_row({bench.name, "FAILED: " + failed->error});
      continue;
    }

    std::vector<std::string> cells = {bench.name};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const SuiteRun& run = columns[c].runs[i];
      cells.push_back(TextTable::num(run.result.eval.clr, 2));
      cells.push_back(TextTable::num(
          100.0 * run.result.eval.total_cap / bench.tech.cap_limit, 1));
      if (c == 0) cells.push_back(TextTable::num(run.seconds, 1));
      clr_sum[c] += run.result.eval.clr;
    }
    table.add_row(cells);
    skew_sum += columns[0].runs[i].result.eval.nominal_skew;
    ++averaged_rows;
  }
  std::printf("%s", table.to_string().c_str());
  if (const int n = averaged_rows; n > 0) {
    std::printf("\nAverage CLR: CONTANGO %.2f | TUNED %.2f (%.2fx) | "
                "WSIZE %.2f (%.2fx) | CONSTR %.2f (%.2fx)\n",
                clr_sum[0] / n, clr_sum[1] / n, clr_sum[1] / clr_sum[0],
                clr_sum[2] / n, clr_sum[2] / clr_sum[0], clr_sum[3] / n,
                clr_sum[3] / clr_sum[0]);
    std::printf("Average final skew (CONTANGO): %.2f ps\n", skew_sum / n);
    std::printf("Contango pass: %d threads, %.1f s wall (%.1f s CPU)\n",
                columns[0].threads, columns[0].wall_seconds,
                columns[0].cpu_seconds());
    std::printf("(paper Table IV: Contango beat the three contest teams by\n"
                " 2.15x / 2.35x / 3.99x on average CLR)\n");
  }
  if (!options.json_report_path.empty()) {
    std::printf("JSON report written to %s\n", options.json_report_path.c_str());
  }
  return all_ok ? 0 : 1;
}
