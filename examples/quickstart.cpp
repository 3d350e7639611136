// Quickstart: build a zero-skew tree for a small synthetic chip, buffer it,
// and report skew/CLR from the transient evaluator.
//
//   ./quickstart [num_sinks]

#include <cstdio>
#include <exception>

#include "analysis/evaluate.h"
#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/log.h"

using namespace contango;

int main(int argc, char** argv) {
  int num_sinks = 150;
  try {
    Log::level_from_env();
    if (argc > 1) num_sinks = parse_int("num_sinks", argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // 1. A benchmark: die, source, sinks, obstacles, technology.
  const Benchmark bench = generate_ti_like(num_sinks);
  std::printf("benchmark %s: %zu sinks, die %.0f x %.0f um, cap limit %.1f pF\n",
              bench.name.c_str(), bench.sinks.size(), bench.die.width(),
              bench.die.height(), bench.tech.cap_limit / 1000.0);

  // 2. Zero-skew tree via DME.
  ClockTree tree = build_zst(bench);
  std::printf("ZST: %zu nodes, wirelength %.1f mm\n", tree.size(),
              tree.total_wirelength() / 1000.0);

  // 3. Fast buffer insertion with the best composite unit (8x small).
  const CompositeBuffer unit = best_unit_composite(bench.tech);
  const auto ins = insert_buffers(tree, bench, unit);
  std::printf("buffer insertion: %d composite buffers (%dx %s each)\n",
              ins.buffers_inserted, unit.count,
              bench.tech.inverters[static_cast<std::size_t>(unit.inverter_type)].name.c_str());

  // 4. Evaluate with the transient engine at both supply corners.
  Evaluator eval(bench);
  const EvalResult r = eval.evaluate(tree);
  std::printf("nominal skew  : %8.3f ps\n", r.nominal_skew);
  std::printf("CLR           : %8.3f ps\n", r.clr);
  std::printf("max latency   : %8.3f ps\n", r.max_latency);
  std::printf("worst slew    : %8.3f ps (limit %.0f)\n", r.worst_slew,
              bench.tech.slew_limit);
  std::printf("total cap     : %8.1f pF (%.1f%% of limit)\n", r.total_cap / 1000.0,
              100.0 * r.total_cap / bench.tech.cap_limit);
  std::printf("legal         : %s\n", r.legal() ? "yes" : "NO");
  return r.legal() ? 0 : 1;
}
