// Open-ended workload engine demo: resolve a workload spec — registered
// scenario families, .bench files on disk, or whole directories of them —
// and fan the full Contango flow out over the result, printing the
// per-scenario report table.
//
//   ./example_scenario_suite [spec] [threads] [seed]
//
// Defaults: spec = the checked-in benchmarks/ directory (tried relative to
// the current directory, then the parent, as when running from build/);
// threads = hardware concurrency; seed = 1.
//
//   ./example_scenario_suite benchmarks/ring_s1.bench     # one file
//   ./example_scenario_suite ring,high_fanout:600 8 7     # registry, 8 threads

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "cts/suite.h"

using namespace contango;

int main(int argc, char** argv) {
  std::string spec;
  if (argc > 1) {
    spec = argv[1];
  } else {
    // Find the checked-in benchmark directory from repo root or build/.
    spec = std::filesystem::is_directory("benchmarks") ? "benchmarks"
                                                       : "../benchmarks";
  }
  const int threads = (argc > 2) ? std::atoi(argv[2]) : 0;
  const auto seed = static_cast<std::uint64_t>((argc > 3) ? std::atoll(argv[3]) : 1);

  std::vector<Benchmark> suite;
  try {
    suite = collect_workloads(spec, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot resolve workload spec '%s':\n  %s\n",
                 spec.c_str(), e.what());
    return 1;
  }
  if (suite.empty()) {
    std::fprintf(stderr, "workload spec '%s' resolved to no benchmarks\n",
                 spec.c_str());
    return 1;
  }

  SuiteOptions options;
  try {
    options = suite_options_from_env();  // CONTANGO_PIPELINE, _JSON_OUT, ...
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (argc > 2) options.threads = threads;  // argv beats CONTANGO_THREADS
  std::printf("pipeline: %s\n",
              resolved_pipeline_spec(options.flow).c_str());
  std::printf("workloads from '%s' (seed %llu):\n", spec.c_str(),
              static_cast<unsigned long long>(seed));
  for (const Benchmark& b : suite) {
    std::printf("  %-22s %4zu sinks, %3zu obstacles, die %.1f x %.1f mm\n",
                b.name.c_str(), b.sinks.size(), b.obstacle_rects.size(),
                b.die.width() / 1000.0, b.die.height() / 1000.0);
  }
  std::printf("\n");

  options.on_run_done = [](const SuiteRun& run) {
    std::printf("  done %-22s %6.1f s%s\n", run.benchmark.c_str(), run.seconds,
                run.ok ? "" : " (FAILED)");
    std::fflush(stdout);
  };
  const SuiteReport report = run_suite(suite, options);

  std::printf("\n%s\n", report.table().c_str());
  std::printf("%d threads: %.1f s wall, %.1f s process CPU, %ld sims total\n",
              report.threads, report.wall_seconds, report.process_cpu_seconds,
              report.total_sim_runs());
  return report.all_ok() ? 0 : 1;
}
