// Full SoC clock-network synthesis walkthrough on an obstacle-heavy
// benchmark: runs every Contango stage, prints the per-stage metrics, and
// dumps SVG snapshots (construction / final) so the detours, buffers and
// slack gradient can be inspected.
//
//   ./soc_flow [suite_index 0..6] [output_prefix]

#include <cstdio>
#include <exception>
#include <string>

#include "cts/buflib.h"
#include "cts/dme.h"
#include "cts/flow.h"
#include "cts/obstacles.h"
#include "cts/slack.h"
#include "io/svg.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/env.h"
#include "util/log.h"

using namespace contango;

int main(int argc, char** argv) {
  int index = 2;
  try {
    Log::level_from_env();
    if (argc > 1) index = parse_int("suite_index", argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const std::string prefix = (argc > 2) ? argv[2] : "soc";
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(index));

  std::printf("benchmark %s: %zu sinks, %zu obstacle rects "
              "(%zu compound blockages), die %.1f x %.1f mm\n",
              bench.name.c_str(), bench.sinks.size(), bench.obstacle_rects.size(),
              bench.obstacles().compounds().size(), bench.die.width() / 1000.0,
              bench.die.height() / 1000.0);
  write_benchmark_file(bench, prefix + "_benchmark.cns");
  std::printf("benchmark written to %s_benchmark.cns\n\n", prefix.c_str());

  // Snapshot of the raw construction for comparison.
  {
    ClockTree zst = build_zst(bench);
    SvgOptions options;
    options.color_by_slack = false;
    write_svg_file(prefix + "_zst.svg", bench, zst, {}, options);
  }

  const FlowResult r = run_contango(bench);
  std::printf("%-8s %14s %14s %12s %8s\n", "stage", "skew, ps", "CLR, ps",
              "cap, pF", "sims");
  for (const StageSnapshot& s : r.stages) {
    std::printf("%-8s %14.3f %14.3f %12.2f %8d\n", s.name.c_str(), s.skew,
                s.clr, s.cap / 1000.0, s.sim_runs);
  }
  std::printf("\nobstacle repair: %d L-flips, %d maze reroutes, %d contour "
              "detours, %d kept crossings (+%.2f mm wire)\n",
              r.obstacles.l_flips, r.obstacles.maze_reroutes,
              r.obstacles.contour_detours, r.obstacles.kept_crossings,
              r.obstacles.added_wirelength / 1000.0);
  std::printf("polarity: %d inverted sinks fixed with %d inverters\n",
              r.polarity.inverted_sinks, r.polarity.added_inverters);
  std::printf("composite buffer: %dx %s; %d buffer nodes\n", r.buffer.count,
              bench.tech.inverters[static_cast<std::size_t>(r.buffer.inverter_type)].name.c_str(),
              r.tree.buffer_count());
  std::printf("final: skew %.3f ps, CLR %.3f ps, worst slew %.1f ps, legal %s\n",
              r.eval.nominal_skew, r.eval.clr, r.eval.worst_slew,
              r.eval.legal() ? "yes" : "NO");

  const EdgeSlacks slacks = compute_edge_slacks(r.tree, r.eval);
  std::vector<Ps> color(r.tree.size(), 0.0);
  for (NodeId id : r.tree.topological_order()) {
    if (id != r.tree.root() && slacks.slow[id] < 1e30) color[id] = slacks.slow[id];
  }
  write_svg_file(prefix + "_final.svg", bench, r.tree, color);
  std::printf("SVGs written to %s_zst.svg and %s_final.svg\n", prefix.c_str(),
              prefix.c_str());
  return r.eval.legal() ? 0 : 1;
}
