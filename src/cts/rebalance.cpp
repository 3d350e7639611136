#include "cts/rebalance.h"

#include <algorithm>
#include <limits>

namespace contango {
namespace {

constexpr Um kInf = std::numeric_limits<double>::max();

}  // namespace

Um rebalance_pathlength(ClockTree& tree) {
  const std::vector<NodeId> topo = tree.topological_order();

  // Bottom-up: max and min root-to-sink length through each node, as
  // "remaining below" values.
  std::vector<Um> max_below(tree.size(), 0.0);
  std::vector<Um> min_below(tree.size(), kInf);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const TreeNode& n = tree.node(id);
    if (n.is_sink()) min_below[id] = 0.0;
    if (id == tree.root()) continue;
    const Um len = tree.edge_length(id);
    if (min_below[id] < kInf) {
      max_below[n.parent] = std::max(max_below[n.parent], len + max_below[id]);
      min_below[n.parent] = std::min(min_below[n.parent], len + min_below[id]);
    }
  }
  if (tree.empty() || min_below[tree.root()] >= kInf) return 0.0;
  const Um target = max_below[tree.root()];

  // Top-down: the slack of the edge above v is
  //   target - (length so far) - (edge) - max_below(v);
  // pay as much as possible as high as possible (one pass is exact).
  Um added = 0.0;
  struct Entry {
    NodeId id;
    Um above;  ///< path length from the root to the edge's parent endpoint
  };
  std::vector<Entry> queue{{tree.root(), 0.0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Entry e = queue[i];
    Um below = e.above;
    if (e.id != tree.root()) {
      below += tree.edge_length(e.id);
      if (min_below[e.id] < kInf) {
        const Um slack = target - below - max_below[e.id];
        if (slack > 1e-9) {
          tree.node(e.id).snake += slack;
          added += slack;
          below += slack;
        }
      }
    }
    for (NodeId ch : tree.node(e.id).children) queue.push_back(Entry{ch, below});
  }
  return added;
}

}  // namespace contango
