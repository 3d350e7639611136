// Reproduces Table II of the paper: inverted sinks after (inverting) buffer
// insertion vs. the number of polarity-correcting inverters added by the
// provably-minimal bottom-up algorithm, across the seven-benchmark suite.
//
// The shape to match: the corrective count is a small fraction of the
// inverted-sink count (the paper reports 2-16 inverters for 46-153
// inverted sinks), far below the naive one-inverter-per-sink patch.

#include <cstdio>
#include <exception>

#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/obstacles.h"
#include "cts/polarity.h"
#include "cts/rebalance.h"
#include "cts/vanginneken.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/log.h"

using namespace contango;

int main() {
  try {
    Log::level_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  std::printf("== Table II: inverted sinks vs polarity-correcting inverters ==\n");
  std::printf("(after ZST construction, obstacle repair and van Ginneken\n");
  std::printf(" insertion with the 8x-small composite)\n\n");

  TextTable table({"Benchmark", "Sinks", "Inverted sinks", "Added inverters",
                   "Naive cost (n_x)", "Remaining inverted"});
  for (int i = 0; i < 7; ++i) {
    const Benchmark bench = generate_ispd_like(ispd09_suite_params(i));
    ClockTree tree = build_zst(bench);
    ObstacleRepairOptions repair;
    repair.slew_free_cap = slew_free_cap(bench.tech, CompositeBuffer{0, 8}, 0.68);
    repair_obstacles(tree, bench, repair);
    rebalance_pathlength(tree);
    insert_buffers(tree, bench, CompositeBuffer{0, 8});

    const int inverted = count_inverted_sinks(tree);
    const PolarityFix fix = correct_polarity(tree, bench, CompositeBuffer{0, 1});
    table.add_row({bench.name, std::to_string(bench.sinks.size()),
                   std::to_string(fix.inverted_sinks),
                   std::to_string(fix.added_inverters), std::to_string(inverted),
                   std::to_string(count_inverted_sinks(tree))});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nEvery 'Remaining inverted' entry must be 0; 'Added inverters'\n"
              "is minimal subject to <= 1 corrective inverter per path\n"
              "(paper Proposition 2).\n");
  return 0;
}
