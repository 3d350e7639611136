// Parallel suite runner: fan the full Contango flow out over a benchmark
// suite on a worker pool, then rerun it serially and check that the two
// reports agree bit for bit (the runner is deterministic by construction —
// every worker owns its evaluator and writes only its own result slot).
//
//   ./example_parallel_suite [num_benchmarks] [threads]
//
// Defaults: 4 smallest suite entries, hardware-concurrency workers.

#include <cstdio>
#include <exception>
#include <vector>

#include "cts/pipeline.h"
#include "cts/suite.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/log.h"
#include "util/parallel.h"

using namespace contango;

int main(int argc, char** argv) {
  int count = 4;
  int threads = hardware_threads();
  try {
    Log::level_from_env();
    if (argc > 1) count = parse_int("count", argv[1]);
    if (argc > 2) threads = parse_int("threads", argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // The suite: ISPD'09-style entries, smallest first so the demo stays fast.
  const std::vector<int> order = {3, 0, 1, 4, 2, 5, 6};
  std::vector<Benchmark> suite;
  for (int i = 0; i < count && i < 7; ++i) {
    suite.push_back(generate_ispd_like(ispd09_suite_params(order[static_cast<std::size_t>(i)])));
  }
  // 1. Parallel run.
  SuiteOptions options;
  options.threads = threads;
  options.flow.pipeline = env_string("CONTANGO_PIPELINE", "");
  try {
    Pipeline::from_options(options.flow);  // reject bad specs up front
  } catch (const PipelineError& e) {
    std::fprintf(stderr, "CONTANGO_PIPELINE: %s\n", e.what());
    return 1;
  }
  std::printf("suite: %zu benchmarks, %d worker threads\npipeline: %s\n\n",
              suite.size(), threads,
              resolved_pipeline_spec(options.flow).c_str());
  // Live progress through the runner's hooks: one line when a worker picks
  // a benchmark up, one when it finishes.  Both hooks are serialized by the
  // runner, so plain printf needs no locking here.
  options.on_run_start = [](const SuiteRun& run) {
    std::printf("  start %-8s (%d sinks, hash %.16s...)\n",
                run.benchmark.c_str(), run.num_sinks,
                run.benchmark_hash.c_str());
    std::fflush(stdout);
  };
  options.on_run_done = [](const SuiteRun& run) {
    std::printf("  done  %-8s %5.1f s%s\n", run.benchmark.c_str(), run.seconds,
                run.ok ? "" : " (FAILED)");
    std::fflush(stdout);
  };
  const SuiteReport parallel = run_suite(suite, options);
  options.on_run_start = nullptr;  // the serial rerun below stays quiet
  options.on_run_done = nullptr;
  std::printf("%s\n", parallel.table().c_str());
  std::printf("parallel: %.1f s wall, %.1f s CPU\n\n", parallel.wall_seconds,
              parallel.cpu_seconds());

  // 2. Serial rerun of the same suite; the wall-time ratio is the true
  // speedup (it saturates at the machine's core count).
  options.threads = 1;
  const SuiteReport serial = run_suite(suite, options);
  std::printf("serial:   %.1f s wall  ->  %.2fx speedup on %d threads\n",
              serial.wall_seconds, serial.wall_seconds / parallel.wall_seconds,
              threads);

  // 3. Determinism check: identical metrics in every row.
  int mismatches = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const FlowResult& p = parallel.runs[i].result;
    const FlowResult& s = serial.runs[i].result;
    if (p.eval.clr != s.eval.clr || p.eval.nominal_skew != s.eval.nominal_skew ||
        p.eval.total_cap != s.eval.total_cap || p.sim_runs != s.sim_runs) {
      std::printf("MISMATCH on %s\n", parallel.runs[i].benchmark.c_str());
      ++mismatches;
    }
  }
  std::printf("determinism: %s\n",
              mismatches == 0 ? "parallel == serial on every benchmark"
                              : "FAILED");
  return mismatches == 0 && parallel.all_ok() ? 0 : 1;
}
