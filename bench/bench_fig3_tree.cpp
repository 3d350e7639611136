// Reproduces Figure 3 of the paper: the clock tree Contango produces on the
// fnb1-like suite entry, rendered as an SVG with sinks as crosses, buffers
// as blue rectangles, and wires on a red-green gradient of slow-down slack
// (red = critical, green = most slack).

#include <cstdio>
#include <exception>

#include "cts/flow.h"
#include "cts/slack.h"
#include "io/svg.h"
#include "netlist/generators.h"
#include "util/env.h"

using namespace contango;

int main() {
  int index = 0;
  try {
    index = static_cast<int>(env_long("CONTANGO_FIG3_BENCHMARK", 6));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(index));
  std::printf("== Figure 3: Contango clock tree on %s ==\n\n", bench.name.c_str());

  const FlowResult r = run_contango(bench);
  std::printf("final skew %.3f ps, CLR %.3f ps, %d buffers, %zu tree nodes\n",
              r.eval.nominal_skew, r.eval.clr, r.tree.buffer_count(),
              r.tree.topological_order().size());

  // Edge coloring by slow-down slack, as described in paper section III-B.
  const EdgeSlacks slacks = compute_edge_slacks(r.tree, r.eval);
  std::vector<Ps> color(r.tree.size(), 0.0);
  Ps max_finite = 0.0;
  for (NodeId id : r.tree.topological_order()) {
    if (id == r.tree.root()) continue;
    if (slacks.slow[id] < 1e30) max_finite = std::max(max_finite, slacks.slow[id]);
  }
  for (NodeId id : r.tree.topological_order()) {
    if (id == r.tree.root()) continue;
    color[id] = (slacks.slow[id] < 1e30) ? slacks.slow[id] : max_finite;
  }

  write_svg_file("fig3_tree.svg", bench, r.tree, color);
  std::printf("SVG written to fig3_tree.svg (red = zero slack, green = max)\n");

  // Structural digest so the figure is verifiable without a viewer.
  int red_edges = 0, total_edges = 0;
  for (NodeId id : r.tree.topological_order()) {
    if (id == r.tree.root()) continue;
    ++total_edges;
    if (color[id] < 0.05 * max_finite) ++red_edges;
  }
  std::printf("critical (red) edges: %d of %d — the critical path from the\n"
              "source to the slowest sink shows as a red spine, as in the\n"
              "paper's figure.\n", red_edges, total_edges);
  return 0;
}
