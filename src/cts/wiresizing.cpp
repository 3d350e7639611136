#include "cts/wiresizing.h"

#include <algorithm>
#include <limits>

#include "util/log.h"

namespace contango {
namespace {

/// Depth of every node (root = 0).
std::vector<int> node_depths(const ClockTree& tree) {
  std::vector<int> depth(tree.size(), 0);
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root()) depth[id] = depth[tree.node(id).parent] + 1;
  }
  return depth;
}

}  // namespace

Ps calibrate_tws(const ClockTree& tree, const EditProbe& probe,
                 const EvalResult& baseline) {
  // Candidate edges: mid-depth, currently wide, with meaningful length.
  const std::vector<int> depth = node_depths(tree);
  int max_depth = 0;
  for (NodeId id : tree.topological_order()) max_depth = std::max(max_depth, depth[id]);

  std::vector<NodeId> samples;
  std::vector<char> blocked(tree.size(), 0);  // subtree-disjointness marker
  for (NodeId id : tree.topological_order()) {
    if (id == tree.root()) continue;
    if (blocked[tree.node(id).parent]) {
      blocked[id] = 1;
      continue;
    }
    if (samples.size() >= 5) continue;
    if (tree.node(id).wire_width == 0) continue;
    if (depth[id] < max_depth / 3 || depth[id] > 2 * max_depth / 3) continue;
    if (tree.edge_length(id) < 50.0) continue;
    samples.push_back(id);
    blocked[id] = 1;  // keep samples subtree-disjoint (independent)
  }
  if (samples.empty()) return 0.0;

  const EvalResult probed = probe([&](TreeEditSession& session) {
    for (NodeId id : samples) session.set_wire_width(id, 0);
  });

  // For each sample, the worst latency increase among its downstream sinks
  // divided by the edge length; T_ws is the maximum across samples.
  Ps tws = 0.0;
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
    tws = std::max(tws, worst / std::max(tree.edge_length(id), 1.0));
  }
  Log::debug("calibrate_tws: %zu samples, tws = %.5f ps/um", samples.size(), tws);
  return tws;
}

int wiresizing_round(TreeEditSession& session, const EdgeSlacks& slacks,
                     const WireSizingParams& params) {
  if (params.tws_per_um <= 0.0) return 0;
  const ClockTree& tree = session.tree();
  int changed = 0;

  // Breadth-first with the consumed slack carried down (Algorithm 1's
  // RSlack), so a downsize high in the tree debits every descendant.
  struct Entry {
    NodeId id;
    Ps consumed;
  };
  std::vector<Entry> queue{{tree.root(), 0.0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Entry e = queue[i];
    Ps consumed = e.consumed;
    if (e.id != tree.root() && tree.node(e.id).wire_width > 0) {
      const Ps est = params.tws_per_um * tree.edge_length(e.id);
      const Ps slack = slacks.slow[e.id];
      if (est >= params.min_gain &&
          slack < std::numeric_limits<double>::max() &&
          params.safety * (slack - consumed) > est) {
        session.set_wire_width(e.id, 0);
        consumed += est;
        ++changed;
      }
    }
    for (NodeId ch : tree.node(e.id).children) queue.push_back(Entry{ch, consumed});
  }
  return changed;
}

}  // namespace contango
