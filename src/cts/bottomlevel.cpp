#include "cts/bottomlevel.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace contango {

Ps calibrate_bottom_twn(const ClockTree& tree, const EditProbe& probe,
                        const EvalResult& baseline, Um unit) {
  std::vector<NodeId> samples;
  for (NodeId id : tree.topological_order()) {
    if (samples.size() >= 5) break;
    if (tree.node(id).is_sink()) samples.push_back(id);
  }
  if (samples.empty()) return 0.0;

  const EvalResult probed = probe([&](TreeEditSession& session) {
    for (NodeId id : samples) session.add_snake(id, unit);
  });

  Ps twn = 0.0;
  for (NodeId id : samples) {
    const int sink = tree.node(id).sink_index;
    for (std::size_t c = 0; c < baseline.corners.size(); ++c) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const auto& b = baseline.corners[c].sinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(sink)];
        const auto& p = probed.corners[c].sinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(sink)];
        if (b.reached && p.reached) twn = std::max(twn, p.latency - b.latency);
      }
    }
  }
  return twn;
}

int bottom_level_round(TreeEditSession& session, const EdgeSlacks& slacks,
                       const BottomLevelParams& params) {
  if (params.twn_per_unit <= 0.0) return 0;
  const ClockTree& tree = session.tree();
  int changed = 0;
  for (NodeId id : tree.topological_order()) {
    if (!tree.node(id).is_sink()) continue;
    const Ps slack = slacks.slow[id];
    if (slack >= std::numeric_limits<double>::max()) continue;
    const int units =
        std::clamp(static_cast<int>(std::floor(params.safety * slack / params.twn_per_unit)),
                   0, params.max_units);
    if (units > 0) {
      session.add_snake(id, units * params.unit);
      ++changed;
    }
  }
  return changed;
}

}  // namespace contango
