// Regenerates the checked-in benchmarks/ directory: one .bench instance of
// every registered scenario family (cts/scenario.h) at the given seed,
// written through netlist/io so the files exercise the exact format the
// parser reads back.  Run from the repo root after changing a generator,
// the registry or the format, then commit the diff:
//
//   ./build/export_benchmarks benchmarks 1
//
// usage: export_benchmarks [out_dir=benchmarks] [seed=1]

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "cts/scenario.h"
#include "netlist/io.h"
#include "util/env.h"
#include "util/log.h"

using namespace contango;

int main(int argc, char** argv) {
  const std::string out_dir = (argc > 1) ? argv[1] : "benchmarks";
  std::uint64_t seed = 1;
  try {
    Log::level_from_env();
    if (argc > 2) seed = static_cast<std::uint64_t>(parse_long("seed", argv[2]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s': %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  for (const ScenarioRegistry::Family& family : registry.families()) {
    try {
      const Benchmark bench = registry.make(family.name, seed);
      const std::string path = out_dir + "/" + bench.name + ".bench";
      write_benchmark_file(bench, path);
      std::printf("%-28s %4zu sinks, %3zu obstacles  (%s)\n", path.c_str(),
                  bench.sinks.size(), bench.obstacle_rects.size(),
                  family.description.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", family.name.c_str(), e.what());
      return 1;
    }
  }
  return 0;
}
