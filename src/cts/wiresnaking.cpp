#include "cts/wiresnaking.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/log.h"

namespace contango {

Ps calibrate_twn(const ClockTree& tree, const EditProbe& probe,
                 const EvalResult& baseline, Um unit) {
  // Sample subtree-disjoint edges spread over depths.
  std::vector<NodeId> samples;
  std::vector<char> blocked(tree.size(), 0);
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    if (blocked[tree.node(id).parent]) {
      blocked[id] = 1;
      continue;
    }
    if (samples.size() >= 5) continue;
    if (tree.edge_length(id) < unit) continue;
    samples.push_back(id);
    blocked[id] = 1;
  }
  if (samples.empty()) return 0.0;

  const EvalResult probed = probe([&](TreeEditSession& session) {
    for (NodeId id : samples) session.add_snake(id, unit);
  });

  Ps twn = 0.0;
  for (NodeId id : samples) {
    Ps worst = 0.0;
    for (NodeId s : tree.downstream_sinks(id)) {
      const int sink = tree.node(s).sink_index;
      for (std::size_t c = 0; c < baseline.corners.size(); ++c) {
        for (int t = 0; t < kNumTransitions; ++t) {
          const auto& b = baseline.corners[c].sinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(sink)];
          const auto& p = probed.corners[c].sinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(sink)];
          if (b.reached && p.reached) worst = std::max(worst, p.latency - b.latency);
        }
      }
    }
    twn = std::max(twn, worst);
  }
  Log::debug("calibrate_twn: %zu samples, twn = %.5f ps/unit(%.0f um)",
             samples.size(), twn, unit);
  return twn;
}

int wiresnaking_round(TreeEditSession& session, const EdgeSlacks& slacks,
                      const WireSnakingParams& params) {
  if (params.twn_per_unit <= 0.0) return 0;
  const ClockTree& tree = session.tree();
  int changed = 0;

  struct Entry {
    NodeId id;
    Ps consumed;
  };
  std::vector<Entry> queue{{tree.root(), 0.0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Entry e = queue[i];
    Ps consumed = e.consumed;
    if (e.id != tree.root()) {
      const Ps slack = slacks.slow[e.id];
      if (slack < std::numeric_limits<double>::max()) {
        const Ps budget = params.safety * (slack - consumed);
        const int units = std::clamp(
            static_cast<int>(std::floor(budget / params.twn_per_unit)), 0,
            params.max_units_per_edge);
        if (units > 0) {
          session.add_snake(e.id, units * params.unit);
          consumed += units * params.twn_per_unit;
          ++changed;
        }
      }
    }
    for (NodeId ch : tree.node(e.id).children) queue.push_back(Entry{ch, consumed});
  }
  return changed;
}

}  // namespace contango
