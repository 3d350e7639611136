#include "cts/bufferopt.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "rctree/extract.h"
#include "util/log.h"

namespace contango {

TrunkInfo find_trunk(const ClockTree& tree) {
  TrunkInfo trunk;
  NodeId at = tree.root();
  trunk.path.push_back(at);
  while (tree.node(at).children.size() == 1) {
    at = tree.node(at).children.front();
    trunk.path.push_back(at);
    trunk.length += tree.routed_length(at);
    // The terminating branch node may itself be a buffer; it cannot be
    // slid (splice_out needs a single child), so only chain buffers count.
    if (tree.node(at).is_buffer() && tree.node(at).children.size() == 1) {
      trunk.buffers.push_back(at);
    }
    if (tree.node(at).is_sink()) break;
  }
  return trunk;
}

int slide_and_interleave_trunk(ClockTree& tree, const Benchmark& bench,
                               const CompositeBuffer& buffer, Um max_spacing) {
  TrunkInfo trunk = find_trunk(tree);
  if (trunk.length <= 0.0) return 0;
  const NodeId branch = trunk.path.back();
  if (tree.node(branch).is_sink()) return 0;  // degenerate single-sink tree

  // Remove existing trunk buffers (sliding is re-placement).
  for (NodeId b : trunk.buffers) tree.splice_out(b);

  // Interleaving: enough buffers that no span exceeds max_spacing.
  const int original = static_cast<int>(trunk.buffers.size());
  int count = original;
  const int needed = std::max(1, static_cast<int>(std::ceil(trunk.length / max_spacing)) - 1);
  count = std::max(count, needed);
  // The trunk is common to every sink: keep the inverter-count parity so
  // sink polarity survives the re-placement.
  if ((count - original) % 2 != 0) ++count;

  // Walk the (possibly multi-edge) root-to-branch path and insert evenly.
  // After splicing, the path is root -> ... -> branch; inserting splits
  // edges, so resolve positions bottom-up along the current path.
  const ObstacleSet& obs = bench.obstacles();
  for (int k = count; k >= 1; --k) {
    const Um target = trunk.length * k / (count + 1);
    // Find the edge of the current root-to-branch path containing target.
    std::vector<NodeId> path;
    for (NodeId at = branch; at != tree.root(); at = tree.node(at).parent) {
      path.push_back(at);
    }
    std::reverse(path.begin(), path.end());
    Um walked = 0.0;
    bool placed = false;
    for (NodeId id : path) {
      const Um len = tree.routed_length(id);
      if (!placed && target <= walked + len) {
        Um d = target - walked;
        // Slide off obstacle interiors to the nearest legal spot.
        Point pos = point_along(tree.node(id).route, d);
        for (Um shift = 5.0; obs.blocks_point(pos) && shift < len; shift += 5.0) {
          const Um up = std::max(d - shift, 1.0);
          pos = point_along(tree.node(id).route, up);
          if (!obs.blocks_point(pos)) {
            d = up;
            break;
          }
          const Um down = std::min(d + shift, len - 1.0);
          pos = point_along(tree.node(id).route, down);
          if (!obs.blocks_point(pos)) {
            d = down;
            break;
          }
        }
        tree.insert_buffer(id, d, buffer);
        placed = true;
      }
      walked += len;
    }
  }
  tree.validate();
  return count;
}

namespace {

int scaled_count(int count, double fraction) {
  return std::max(count + 1, static_cast<int>(std::ceil(count * (1.0 + fraction))));
}

}  // namespace

int upsize_trunk_buffers(TreeEditSession& session, double fraction) {
  const ClockTree& tree = session.tree();
  const TrunkInfo trunk = find_trunk(tree);
  int changed = 0;
  for (NodeId b : trunk.buffers) {
    const CompositeBuffer& old = tree.node(b).buffer;
    session.set_buffer(
        b, CompositeBuffer{old.inverter_type, scaled_count(old.count, fraction)});
    ++changed;
  }
  return changed;
}

int upsize_branch_buffers(TreeEditSession& session, int levels, double fraction) {
  const ClockTree& tree = session.tree();
  const TrunkInfo trunk = find_trunk(tree);
  const NodeId branch = trunk.path.back();
  if (tree.node(branch).is_sink()) return 0;

  // Buffer level = number of buffers on the path below the first branch.
  int changed = 0;
  struct Entry {
    NodeId id;
    int level;
  };
  std::vector<Entry> queue{{branch, 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Entry e = queue[i];
    int level = e.level;
    if (e.id != branch && tree.node(e.id).is_buffer()) {
      ++level;
      if (level <= levels) {
        const CompositeBuffer& old = tree.node(e.id).buffer;
        session.set_buffer(e.id, CompositeBuffer{old.inverter_type,
                                                 scaled_count(old.count, fraction)});
        ++changed;
      }
    }
    if (level <= levels) {
      for (NodeId ch : tree.node(e.id).children) queue.push_back(Entry{ch, level});
    }
  }
  return changed;
}

int equalize_stage_counts(ClockTree& tree, const Benchmark& bench,
                          const CompositeBuffer& buffer) {
  const ObstacleSet& obs = bench.obstacles();
  const std::vector<NodeId> topo = tree.topological_order();

  // Buffer depth per sink; the deepest path sets the target.
  int target = 0;
  for (NodeId id : topo) {
    if (tree.node(id).is_sink()) {
      target = std::max(target, tree.inversion_parity(id));
    }
  }

  // min_deficit[v]: stages every sink below v still needs; paying it on the
  // edge above v covers all of them at once (fewest added buffers).
  constexpr int kNone = 1 << 29;
  std::vector<int> min_deficit(tree.size(), kNone);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const TreeNode& n = tree.node(id);
    if (n.is_sink()) {
      min_deficit[id] = target - tree.inversion_parity(id);
    }
    if (id != tree.root() && min_deficit[id] != kNone) {
      min_deficit[n.parent] = std::min(min_deficit[n.parent], min_deficit[id]);
    }
  }

  // Top-down: insert each path's common deficit as high as possible.
  int inserted = 0;
  struct Entry {
    NodeId id;
    int done;  ///< stages already added above on this path
  };
  std::vector<Entry> queue{{tree.root(), 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    Entry e = queue[i];
    if (e.id != tree.root() && min_deficit[e.id] != kNone) {
      const int add = min_deficit[e.id] - e.done;
      if (add > 0) {
        const Um routed = tree.routed_length(e.id);
        const Um elec = tree.edge_length(e.id);
        const double to_routed = (elec > 0.0) ? routed / elec : 0.0;
        // Splits truncate the node's route: keep the original for geometry.
        const std::vector<Point> route = tree.node(e.id).route;
        NodeId cur = e.id;
        for (int j = add; j >= 1; --j) {
          Um d = elec * j / (add + 1);  // electrical arc position
          if (obs.blocks_point(point_along(route, d * to_routed))) {
            for (Um shift = 5.0; shift < elec; shift += 5.0) {
              if (d - shift >= 0.0 &&
                  !obs.blocks_point(point_along(route, (d - shift) * to_routed))) {
                d -= shift;
                break;
              }
              if (d + shift <= elec &&
                  !obs.blocks_point(point_along(route, (d + shift) * to_routed))) {
                d += shift;
                break;
              }
            }
          }
          cur = tree.insert_buffer_electrical(cur, d, buffer);
          ++inserted;
        }
        e.done += add;
      }
    }
    for (NodeId ch : tree.node(e.id).children) queue.push_back(Entry{ch, e.done});
  }
  tree.validate();
  return inserted;
}

int downsize_bottom_buffers(TreeEditSession& session, int steps) {
  const ClockTree& tree = session.tree();
  // Bottom-level buffers: for each sink, the nearest buffer above it.
  std::unordered_set<NodeId> bottom;
  for (NodeId id : tree.topological_order()) {
    if (!tree.node(id).is_sink()) continue;
    for (NodeId at = tree.node(id).parent; at != kNoNode; at = tree.node(at).parent) {
      if (tree.node(at).is_buffer()) {
        bottom.insert(at);
        break;
      }
    }
  }
  int changed = 0;
  for (NodeId b : bottom) {
    const CompositeBuffer& buf = tree.node(b).buffer;
    if (buf.count > 1) {
      session.set_buffer(
          b, CompositeBuffer{buf.inverter_type, std::max(1, buf.count - steps)});
      ++changed;
    }
  }
  return changed;
}

}  // namespace contango
