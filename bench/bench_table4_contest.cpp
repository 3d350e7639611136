// Reproduces Table IV of the paper: final CLR, capacitance usage (% of the
// benchmark limit) and runtime of Contango against weaker flows on the
// seven-benchmark suite.  The ISPD'09 contest teams' binaries are not
// available; a ladder of three baseline flows spans the same qualitative
// range (see docs/ARCHITECTURE.md): construction-only ("CONSTR"), one
// wiresizing pass ("WSIZE"), and wiresizing + one snaking pass ("TUNED").
//
// Shape to match: Contango's average CLR is a multiple (the paper: 2.15x -
// 3.99x) better than the baselines at comparable capacitance, and every
// benchmark completes within the capacitance limit.
//
// All four flows are parallelized: the Contango column comes from one
// suite-runner pass over the benchmarks, and the three baseline columns fan
// out per benchmark on the same worker count (CONTANGO_THREADS, default:
// hardware concurrency).  Row order matches the serial version exactly.
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
#include <vector>

#include "cts/baseline.h"
#include "cts/scenario.h"
#include "cts/suite.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/signal.h"

using namespace contango;

namespace {

struct BaselineRow {
  BaselineResult tuned;
  BaselineResult wsize;
  BaselineResult constr;
  bool ok = false;
  std::string error;
};

}  // namespace

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
  const int threads = options.threads;

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
  const int rows = static_cast<int>(suite.size());

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

  std::vector<BaselineRow> baselines(suite.size());
  parallel_for(rows, threads, [&](int i) {
    const Benchmark& bench = suite[static_cast<std::size_t>(i)];
    BaselineRow& row = baselines[static_cast<std::size_t>(i)];
    try {  // parallel_for workers must not leak exceptions
      row.tuned = run_baseline_tuned(bench);
      row.wsize = run_baseline_bst(bench);
      row.constr = run_baseline_construction(bench);
      row.ok = true;
    } catch (const std::exception& e) {
      row.error = e.what();
    } catch (...) {
      row.error = "unknown exception";
    }
  });

  TextTable table({"Benchmark", "CONTANGO CLR", "Cap%", "CPU", "TUNED CLR",
                   "Cap%", "WSIZE CLR", "Cap%", "CONSTR CLR", "Cap%"});

  double sum_contango = 0.0, sum_tuned = 0.0, sum_ws = 0.0, sum_con = 0.0;
  double skew_sum = 0.0;
  int averaged_rows = 0;
  for (int i = 0; i < rows; ++i) {
    const Benchmark& bench = suite[static_cast<std::size_t>(i)];
    const SuiteRun& run = contango.runs[static_cast<std::size_t>(i)];
    const BaselineRow& row = baselines[static_cast<std::size_t>(i)];
    if (!run.ok || !row.ok) {
      table.add_row({bench.name,
                     "FAILED: " + (run.ok ? row.error : run.error)});
      continue;
    }

    auto cap_pct = [&](Ff cap) {
      return TextTable::num(100.0 * cap / bench.tech.cap_limit, 1);
    };
    table.add_row({bench.name,
                   TextTable::num(run.result.eval.clr, 2),
                   cap_pct(run.result.eval.total_cap),
                   TextTable::num(run.seconds, 1),
                   TextTable::num(row.tuned.eval.clr, 2), cap_pct(row.tuned.eval.total_cap),
                   TextTable::num(row.wsize.eval.clr, 2), cap_pct(row.wsize.eval.total_cap),
                   TextTable::num(row.constr.eval.clr, 2), cap_pct(row.constr.eval.total_cap)});
    sum_contango += run.result.eval.clr;
    sum_tuned += row.tuned.eval.clr;
    sum_ws += row.wsize.eval.clr;
    sum_con += row.constr.eval.clr;
    skew_sum += run.result.eval.nominal_skew;
    ++averaged_rows;
  }
  std::printf("%s", table.to_string().c_str());
  if (const int n = averaged_rows; n > 0) {
    std::printf("\nAverage CLR: CONTANGO %.2f | TUNED %.2f (%.2fx) | "
                "WSIZE %.2f (%.2fx) | CONSTR %.2f (%.2fx)\n",
                sum_contango / n, sum_tuned / n, sum_tuned / sum_contango,
                sum_ws / n, sum_ws / sum_contango, sum_con / n,
                sum_con / sum_contango);
    std::printf("Average final skew (CONTANGO): %.2f ps\n", skew_sum / n);
    std::printf("Contango pass: %d threads, %.1f s wall (%.1f s CPU)\n",
                contango.threads, contango.wall_seconds, contango.cpu_seconds());
    std::printf("(paper Table IV: Contango beat the three contest teams by\n"
                " 2.15x / 2.35x / 3.99x on average CLR)\n");
  }
  if (!options.json_report_path.empty()) {
    std::printf("JSON report written to %s\n", options.json_report_path.c_str());
  }
  return contango.all_ok() ? 0 : 1;
}
