#include "cts/baseline.h"

#include <algorithm>
#include <functional>

#include "cts/buflib.h"
#include "cts/bufferopt.h"
#include "geom/spatial.h"
#include "cts/dme.h"
#include "cts/rebalance.h"
#include "cts/obstacles.h"
#include "cts/polarity.h"
#include "cts/slack.h"
#include "cts/vanginneken.h"
#include "cts/wiresizing.h"
#include "cts/wiresnaking.h"
#include "util/timer.h"

namespace contango {
namespace {

/// Nearest-neighbour spanning tree over the sinks, rooted at the source.
ClockTree greedy_topology(const Benchmark& bench) {
  ClockTree tree;
  const NodeId root = tree.add_source(bench.source);
  const int width = static_cast<int>(bench.tech.wires.size()) - 1;

  // Order sinks by distance from the source; attach each to the closest
  // node already in the tree.
  std::vector<std::size_t> order(bench.sinks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return manhattan(bench.sinks[a].position, bench.source) <
           manhattan(bench.sinks[b].position, bench.source);
  });

  // Candidate nodes come from a grid-bucket NN index minimizing
  // (manhattan distance, attachable sequence number) lexicographically —
  // the argmin of a first-wins strict `<` scan over insertion order.
  Rect layout = Rect::around(bench.source, bench.source);
  for (const Sink& s : bench.sinks) {
    layout = layout.bounding_union(Rect::around(s.position, s.position));
  }
  PointNnGrid grid(layout, bench.sinks.size() + 1);
  grid.insert(bench.source, 0);

  std::vector<NodeId> attachable{root};
  for (std::size_t i : order) {
    const Point& p = bench.sinks[i].position;
    NodeId best = root;
    // Keep the tree binary: full joints stop accepting attachments
    // (buffer insertion's DP reconstruction requires binary branches).
    const int got = grid.nearest(p, [&](int seq) {
      return tree.node(attachable[static_cast<std::size_t>(seq)])
                 .children.size() < 2;
    });
    if (got >= 0) best = attachable[static_cast<std::size_t>(got)];
    const NodeId sink = tree.add_child(best, NodeKind::kSink, p);
    tree.node(sink).sink_index = static_cast<int>(i);
    tree.node(sink).wire_width = width;
    // Sinks must stay leaves: expose an internal joint at the sink position
    // for later attachments instead of the sink itself.
    const NodeId joint = tree.split_edge(sink, tree.routed_length(sink));
    tree.node(joint).wire_width = width;
    attachable.push_back(joint);
    grid.insert(tree.node(joint).pos, static_cast<int>(attachable.size()) - 1);
  }
  tree.validate();
  return tree;
}

BaselineResult finish(ClockTree tree, Timer& timer, Evaluator& eval) {
  BaselineResult result;
  result.eval = eval.evaluate(tree);
  result.tree = std::move(tree);
  result.sim_runs = eval.sim_runs();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace

BaselineResult run_baseline_greedy(const Benchmark& bench) {
  Timer timer;
  Evaluator eval(bench);
  const CompositeBuffer unit = best_unit_composite(bench.tech);

  ClockTree tree = greedy_topology(bench);
  ObstacleRepairOptions repair;
  repair.slew_free_cap = slew_free_cap(bench.tech, unit, 0.68);
  repair_obstacles(tree, bench, repair);
  insert_buffers(tree, bench, unit);
  // Even a naive flow equalizes buffer depths (otherwise skew lands in the
  // nanoseconds and the comparison is meaningless); what it lacks is the
  // balanced topology and all slack-driven refinement.
  equalize_stage_counts(tree, bench, unit);
  correct_polarity(tree, bench, smallest_inverter(bench.tech));
  return finish(std::move(tree), timer, eval);
}

namespace {

/// Shared balanced front-end: ZST + repair + rebalance + buffering +
/// equalization + polarity; optionally one wiresizing and one snaking pass.
BaselineResult balanced_baseline(const Benchmark& bench, bool wiresize,
                                 bool snake) {
  Timer timer;
  Evaluator eval(bench);
  const CompositeBuffer unit = best_unit_composite(bench.tech);

  ClockTree tree = build_zst(bench);
  ObstacleRepairOptions repair;
  repair.slew_free_cap = slew_free_cap(bench.tech, unit, 0.68);
  repair_obstacles(tree, bench, repair);
  rebalance_pathlength(tree);
  insert_buffers(tree, bench, unit);
  equalize_stage_counts(tree, bench, unit);
  correct_polarity(tree, bench, smallest_inverter(bench.tech));

  EvalResult current = eval.evaluate(tree);
  // The calibration probes edit the tree through a session and undo it.
  const EditProbe probe = [&](const std::function<void(TreeEditSession&)>& edit) {
    TreeEditSession session(tree);
    edit(session);
    const EvalResult probed = eval.evaluate(tree);
    session.rollback();
    return probed;
  };
  if (wiresize) {
    WireSizingParams params;
    params.tws_per_um = calibrate_tws(tree, probe, current);
    const EdgeSlacks slacks = compute_edge_slacks(tree, current);
    TreeEditSession session(tree);
    if (wiresizing_round(session, slacks, params) > 0) {
      const EvalResult r = eval.evaluate(tree);
      if (r.nominal_skew < current.nominal_skew && !r.slew_violation) {
        current = r;
      } else {
        session.rollback();
      }
    }
  }
  if (snake) {
    WireSnakingParams params;
    params.twn_per_unit = calibrate_twn(tree, probe, current, params.unit);
    const EdgeSlacks slacks = compute_edge_slacks(tree, current);
    TreeEditSession session(tree);
    if (wiresnaking_round(session, slacks, params) > 0) {
      const EvalResult r = eval.evaluate(tree);
      if (!(r.nominal_skew < current.nominal_skew && !r.slew_violation)) {
        session.rollback();
      }
    }
  }
  return finish(std::move(tree), timer, eval);
}

}  // namespace

BaselineResult run_baseline_construction(const Benchmark& bench) {
  return balanced_baseline(bench, false, false);
}

BaselineResult run_baseline_bst(const Benchmark& bench) {
  return balanced_baseline(bench, true, false);
}

BaselineResult run_baseline_tuned(const Benchmark& bench) {
  return balanced_baseline(bench, true, true);
}

}  // namespace contango
