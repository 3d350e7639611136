// Reproduces Table V of the paper: scalability of the full flow on the
// Texas-Instruments-style benchmark family (one 4.2 x 3.0 mm chip with a
// 135K-position sink pool, sampled to increasing sink counts).
//
// Shape to match: total capacitance scales linearly with the number of
// sinks; skew stays in single-digit-to-low-double-digit ps; the number of
// simulation runs grows very slowly; the circuit evaluator dominates the
// runtime.
//
// The sweep runs through the parallel suite runner: every sink count is an
// independent Contango run, fanned out over CONTANGO_THREADS workers
// (default: hardware concurrency; set 1 for the serial baseline).  Results
// are input-order-stable and identical to a serial run.
//
// Default sweep: 200 / 500 / 1K / 2K / 5K / 10K sinks.  Set
// CONTANGO_MAX_SINKS (e.g. 20000, 50000 or 1000000) to extend the sweep
// toward — and past — the paper's full range; runtime grows roughly
// linearly with sinks.
//
// Set CONTANGO_SCENARIO to one of the ten scenario-family names (see
// cts/scenario.h: uniform, clustered, ring, obstacle_dense, high_fanout,
// mixed_cap, huge, multidomain, usefulskew, mega) to run the same scaling
// sweep over that family instead of the TI-style chip; CONTANGO_SEED picks
// the instance.  The `huge` family reaches 100k+ sinks and `mega` the 1M
// tier.
//
// Set CONTANGO_WORKLOADS to a collect_workloads() spec (family names,
// .bench/.cbench files, directories — see cts/scenario.h) to run exactly
// those workloads instead of a sweep.  Loading is timed per benchmark and
// lands in the JSON report as `load_seconds`, which is how the trajectory
// compares text-parse vs. binary load cost (results are
// bit-identical).

#include <cstdint>
#include <cstdio>
#include <exception>
#include <vector>

#include "cts/scenario.h"
#include "cts/suite.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/signal.h"
#include "util/timer.h"

using namespace contango;

int main() {
  long max_sinks = 0;
  std::string scenario;
  std::string workloads;
  std::uint64_t seed = 1;
  // CONTANGO_THREADS, CONTANGO_PIPELINE, the optional CONTANGO_MC_*
  // Monte-Carlo pass, and CONTANGO_JSON_OUT for the machine-readable report.
  SuiteOptions options;
  try {
    max_sinks = env_long("CONTANGO_MAX_SINKS", 10000);
    scenario = env_string("CONTANGO_SCENARIO", "");
    workloads = env_string("CONTANGO_WORKLOADS", "");
    seed = static_cast<std::uint64_t>(env_long("CONTANGO_SEED", 1));
    options = suite_options_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }

  std::vector<Benchmark> suite;
  if (!workloads.empty()) {
    try {
      suite = collect_workloads(workloads, seed, &options.load_seconds);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "CONTANGO_WORKLOADS: %s\n", e.what());
      return 1;
    }
  } else {
    for (int n : {200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000,
                  200000, 500000, 1000000}) {
      if (n > max_sinks) continue;
      try {
        Timer load_timer;
        suite.push_back(scenario.empty() ? generate_ti_like(n)
                                         : make_scenario(scenario, seed, n));
        options.load_seconds.push_back(load_timer.seconds());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "CONTANGO_SCENARIO: %s\n", e.what());
        return 1;
      }
    }
  }

  if (!workloads.empty()) {
    std::printf("== Table V variant: CONTANGO_WORKLOADS=%s ==\n",
                workloads.c_str());
    std::printf("(%zu workloads; latency = max nominal-corner latency)\n\n",
                suite.size());
  } else if (scenario.empty()) {
    std::printf("== Table V: scalability on TI-style benchmarks ==\n");
    std::printf("(die 4.2 x 3.0 mm, sinks sampled from one 135K pool;\n");
    std::printf(" latency = max nominal-corner latency)\n\n");
  } else {
    std::printf("== Table V variant: scaling the '%s' scenario family ==\n",
                scenario.c_str());
    std::printf("(seed %llu; latency = max nominal-corner latency)\n\n",
                static_cast<unsigned long long>(seed));
  }

  if (suite.empty()) {
    std::printf("empty sweep: CONTANGO_MAX_SINKS=%ld is below the smallest "
                "entry (200 sinks)\n", max_sinks);
    return 0;
  }

  // ^C / SIGTERM stop the sweep at the next benchmark/pass boundary with
  // the finished rows (and the JSON report) intact.
  install_signal_cancel();
  options.flow.cancel = signal_cancel_token();
  options.on_run_done = [](const SuiteRun& run) {  // progress per finished run
    std::printf("  done %-8s %6.1f s%s\n", run.benchmark.c_str(), run.seconds,
                run.ok ? "" : run.cancelled ? " (cancelled)" : " (FAILED)");
    std::fflush(stdout);
  };
  SuiteReport report;
  try {
    report = run_suite(suite, options);
  } catch (const std::exception& e) {  // e.g. CONTANGO_JSON_OUT unwritable
    std::fprintf(stderr, "bench_table5_scaling: %s\n", e.what());
    return 1;
  }

  std::printf("\n%s\n", report.table().c_str());
  std::printf("%d threads: %.1f s wall, %.1f s process CPU "
              "(%.2fx concurrency), %ld sims total\n",
              report.threads, report.wall_seconds, report.process_cpu_seconds,
              report.process_cpu_seconds / report.wall_seconds,
              report.total_sim_runs());
  // The incremental engine's scorecard: how many candidate evaluations
  // re-propagated only dirty paths instead of the whole tree.
  std::printf("evaluation split: %ld full-tree propagations, %ld incremental\n",
              report.total_full_evals(), report.total_incremental_evals());
  std::printf("Set CONTANGO_MAX_SINKS=50000 to run the paper's full sweep.\n");
  if (!options.json_report_path.empty()) {
    std::printf("JSON report written to %s\n", options.json_report_path.c_str());
  }
  if (signal_cancel_token().cancelled()) {
    std::fprintf(stderr, "bench_table5_scaling: interrupted; partial results "
                         "above\n");
    return 128 + signal_received();
  }
  return report.all_ok() ? 0 : 1;
}
