// TI-style scalability study (paper section V): sample the 135K-sink pool
// of a 4.2 x 3.0 mm chip down to a chosen sink count and run the full flow.
//
//   ./scalability [num_sinks] [seed]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "cts/flow.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/log.h"
#include "util/timer.h"

using namespace contango;

int main(int argc, char** argv) {
  int num_sinks = 1000;
  std::uint64_t seed = 77;
  try {
    Log::level_from_env();
    if (argc > 1) num_sinks = parse_int("num_sinks", argv[1]);
    if (argc > 2) seed = static_cast<std::uint64_t>(parse_long("seed", argv[2]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const Benchmark bench = generate_ti_like(num_sinks, seed);
  std::printf("TI-style benchmark: %d sinks sampled from the 135K pool "
              "(seed %llu)\n\n", num_sinks, static_cast<unsigned long long>(seed));

  Timer timer;
  const FlowResult r = run_contango(bench);

  std::printf("%-8s %12s %12s %12s\n", "stage", "skew, ps", "CLR, ps", "sims");
  for (const StageSnapshot& s : r.stages) {
    std::printf("%-8s %12.3f %12.3f %12d\n", s.name.c_str(), s.skew, s.clr,
                s.sim_runs);
  }
  std::printf("\n# sinks      : %d\n", num_sinks);
  std::printf("CLR          : %.2f ps\n", r.eval.clr);
  std::printf("skew         : %.3f ps\n", r.eval.nominal_skew);
  std::printf("latency      : %.1f ps\n", r.eval.max_latency);
  std::printf("capacitance  : %.2f pF (%.1f%% of limit)\n", r.eval.total_cap / 1000.0,
              100.0 * r.eval.total_cap / bench.tech.cap_limit);
  std::printf("buffers      : %d\n", r.tree.buffer_count());
  std::printf("sim runs     : %d\n", r.sim_runs);
  std::printf("wall time    : %.1f s\n", timer.seconds());
  return r.eval.legal() ? 0 : 1;
}
