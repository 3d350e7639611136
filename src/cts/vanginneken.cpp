#include "cts/vanginneken.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cts/buflib.h"
#include "util/log.h"

namespace contango {
namespace {

using Option = detail::DpOption;
using OptionList = detail::DpOptionList;

/// Pareto prune: sort by cap ascending, keep options with strictly
/// increasing q; bound the list length.
void prune(OptionList& options, int max_options) {
  std::sort(options.begin(), options.end(),
            [](const Option& a, const Option& b) {
              if (a.cap != b.cap) return a.cap < b.cap;
              return a.q > b.q;
            });
  OptionList kept;
  for (const Option& o : options) {
    if (kept.empty() || o.q > kept.back().q + 1e-12) kept.push_back(o);
  }
  if (static_cast<int>(kept.size()) > max_options) {
    // Keep the endpoints and an even subsample of the interior.
    OptionList sampled;
    const double step = static_cast<double>(kept.size() - 1) / (max_options - 1);
    for (int i = 0; i < max_options; ++i) {
      sampled.push_back(kept[static_cast<std::size_t>(std::llround(i * step))]);
    }
    kept = std::move(sampled);
  }
  options = std::move(kept);
}

/// Per-node DP record: the level stack of option lists along the node's
/// edge walk plus the routed distance (from the parent) of each level.
struct NodeDp {
  std::vector<OptionList> levels;
  /// levels[k] corresponds to position distances[k]; distances[0] is the
  /// node itself (== routed length), the last level is the parent end (0).
  /// A negative distance marks a "no position" level (combine-only).
  std::vector<Um> distances;
};

}  // namespace

namespace detail {

DpOptionList merge_options(const DpOptionList& a, const DpOptionList& b) {
  DpOptionList out;
  auto sweep = [&](const DpOptionList& x, const DpOptionList& y, bool swap) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      while (j < y.size() && y[j].q < x[i].q) ++j;
      if (j == y.size()) break;
      DpOption o;
      o.cap = x[i].cap + y[j].cap;
      o.q = x[i].q;  // == min(x.q, y.q)
      o.prev = swap ? static_cast<int>(j) : static_cast<int>(i);
      o.prev_b = swap ? static_cast<int>(i) : static_cast<int>(j);
      out.push_back(o);
    }
  };
  sweep(a, b, false);
  sweep(b, a, true);
  return out;
}

}  // namespace detail

BufferInsertionResult insert_buffers(ClockTree& tree, const Benchmark& bench,
                                     const CompositeBuffer& buffer,
                                     const BufferInsertionOptions& options) {
  const CompositeElectrical buf = bench.tech.electrical(buffer);
  const Ff slew_cap = slew_free_cap(bench.tech, buffer, options.slew_margin);
  const ObstacleSet& obstacles = bench.obstacles();

  const std::vector<NodeId> topo = tree.topological_order();
  std::vector<NodeDp> dp(tree.size());

  // Drop options presenting more load than any upstream driver could take
  // without a slew violation.  When nothing is feasible (e.g. an oversized
  // sink pin), keep the lowest-cap option so the DP can continue to the
  // next buffer slot.
  auto filter_feasible = [&](OptionList& list) {
    OptionList feasible;
    for (const Option& o : list) {
      if (o.cap <= slew_cap) feasible.push_back(o);
    }
    if (feasible.empty() && !list.empty()) {
      feasible.push_back(*std::min_element(
          list.begin(), list.end(),
          [](const Option& a, const Option& b) { return a.cap < b.cap; }));
    }
    list = std::move(feasible);
  };

  auto add_buffer_options = [&](OptionList& list) {
    // Find the best option to buffer: maximize q - R_b * (C_out + cap).
    int best = -1;
    Ps best_q = -std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].cap > slew_cap) continue;
      const Ps q = list[i].q - buf.intrinsic_delay -
                   buf.output_res * (buf.output_cap + list[i].cap);
      if (q > best_q) {
        best_q = q;
        best = static_cast<int>(i);
      }
    }
    if (best < 0 && !list.empty()) {
      // Nothing fits under the slew cap (e.g. the wire just crossed a wide
      // obstacle with no legal buffer site).  Buffer the lightest option
      // anyway: the upstream chain is repaired even if this stage's slew
      // stays hot -- the paper's obstacle pass ("a buffer inserted
      // immediately before the obstacle") relies on exactly this.
      best = 0;
      Ff best_cap = list[0].cap;
      for (std::size_t i = 1; i < list.size(); ++i) {
        if (list[i].cap < best_cap) {
          best_cap = list[i].cap;
          best = static_cast<int>(i);
        }
      }
      best_q = list[static_cast<std::size_t>(best)].q - buf.intrinsic_delay -
               buf.output_res * (buf.output_cap + best_cap);
    }
    if (best >= 0) {
      Option o;
      o.cap = buf.input_cap;
      o.q = best_q;
      // Compose the backpointer: the buffer sits at the same position as
      // the chosen option, so it inherits that option's previous-level
      // link.  (Same-level indices would not survive pruning.)
      o.prev = list[static_cast<std::size_t>(best)].prev;
      o.buffered = true;
      list.push_back(o);
    }
  };

  // Bottom-up DP (children appear after parents in topo order, so reverse).
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const TreeNode& node = tree.node(id);
    NodeDp& rec = dp[id];

    // Level 0: options at the node itself.
    OptionList base;
    if (node.is_sink()) {
      Option o;
      o.cap = bench.sinks.at(static_cast<std::size_t>(node.sink_index)).cap;
      o.q = 0.0;
      base.push_back(o);
    } else if (node.children.empty()) {
      Option o;  // bare internal leaf (should not normally occur)
      o.cap = 0.0;
      o.q = 0.0;
      base.push_back(o);
    } else {
      base = dp[node.children.front()].levels.back();
      // Re-anchor backpointers: child final-level index.
      for (std::size_t i = 0; i < base.size(); ++i) {
        base[i].prev = static_cast<int>(i);
        base[i].prev_b = -1;
        base[i].buffered = false;
      }
      for (std::size_t k = 1; k < node.children.size(); ++k) {
        OptionList merged =
            detail::merge_options(base, dp[node.children[k]].levels.back());
        filter_feasible(merged);
        prune(merged, options.max_options);
        // prev of merged points into `base`; for multi-way merges we would
        // need a chain -- binary trees are guaranteed by DME, and the DP
        // rejects higher arity to keep reconstruction exact.
        if (node.children.size() > 2) {
          throw std::logic_error("insert_buffers: tree must be binary at branches");
        }
        base = std::move(merged);
      }
    }
    prune(base, options.max_options);
    rec.levels.push_back(base);
    rec.distances.push_back(id == tree.root() ? -1.0 : tree.edge_length(id));
    if (id == tree.root()) continue;

    // A buffer directly at the node location (branch points only --
    // buffering a sink pin adds nothing the next position cannot do).
    if (!node.is_sink() && !node.children.empty() &&
        !obstacles.blocks_point(node.pos)) {
      OptionList with_buf = rec.levels.back();
      for (std::size_t i = 0; i < with_buf.size(); ++i) {
        with_buf[i].prev = static_cast<int>(i);
        with_buf[i].prev_b = -1;
        with_buf[i].buffered = false;
      }
      add_buffer_options(with_buf);
      prune(with_buf, options.max_options);
      rec.levels.push_back(with_buf);
      rec.distances.push_back(tree.edge_length(id));
    }

    // Walk the edge from the node towards the parent.  All arithmetic is in
    // *electrical* arc length (snake included, uniform density): a heavily
    // snaked edge — even one with zero routed length — needs proportionally
    // more repeater slots or the capacitance between candidates would
    // exceed what any driver can take.
    const Um routed = tree.routed_length(id);
    const Um elec = tree.edge_length(id);
    const double to_routed = (elec > 0.0) ? routed / elec : 0.0;
    const WireType& wire = bench.tech.wires.at(static_cast<std::size_t>(node.wire_width));

    std::vector<Um> stops;  // electrical distances from the parent, descending
    for (Um e = elec - options.spacing; e > options.spacing / 2.0; e -= options.spacing) {
      stops.push_back(e);
    }
    stops.push_back(0.0);  // parent end (no buffer there)

    Um at = elec;
    for (std::size_t s = 0; s < stops.size(); ++s) {
      const Um next = stops[s];
      const Um seg = at - next;  // electrical length incl. snake
      const KOhm r = wire.r_per_um * seg;
      const Ff c = wire.c_per_um * seg;

      OptionList lifted;
      lifted.reserve(rec.levels.back().size());
      for (std::size_t i = 0; i < rec.levels.back().size(); ++i) {
        const Option& o = rec.levels.back()[i];
        Option w;
        w.cap = o.cap + c;
        w.q = o.q - r * (c / 2.0 + o.cap);
        w.prev = static_cast<int>(i);
        lifted.push_back(w);
      }
      filter_feasible(lifted);
      const bool last = (s + 1 == stops.size());
      if (!last) {
        const Point pos = point_along(node.route, next * to_routed);
        if (!obstacles.blocks_point(pos)) add_buffer_options(lifted);
      }
      prune(lifted, options.max_options);
      rec.levels.push_back(std::move(lifted));
      rec.distances.push_back(next);
      at = next;
    }
  }

  // Pick the best root option: minimize source delay R_src*cap - q.
  const OptionList& root_opts = dp[tree.root()].levels.back();
  if (root_opts.empty()) {
    throw std::logic_error("insert_buffers: no feasible options at the root");
  }
  int best = 0;
  Ps best_delay = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < root_opts.size(); ++i) {
    const Ps d = bench.source_res * root_opts[i].cap - root_opts[i].q;
    if (d < best_delay) {
      best_delay = d;
      best = static_cast<int>(i);
    }
  }

  // Reconstruct buffer placements.
  struct Placement {
    NodeId node;
    Um distance;  ///< electrical distance from the original parent; < 0 = at node
  };
  std::vector<Placement> placements;
  struct Visit {
    NodeId node;
    int option;  ///< option index in the node's final level
  };
  std::vector<Visit> stack;
  // Root: its only level is the combine; descend into children directly.
  {
    const Option& o = root_opts[static_cast<std::size_t>(best)];
    const auto& children = tree.node(tree.root()).children;
    if (!children.empty()) stack.push_back(Visit{children[0], o.prev});
    if (children.size() > 1) stack.push_back(Visit{children[1], o.prev_b});
  }
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    const NodeDp& rec = dp[v.node];
    int opt = v.option;
    for (std::size_t level = rec.levels.size(); level-- > 1;) {
      const Option& o = rec.levels[level][static_cast<std::size_t>(opt)];
      if (o.buffered) {
        const Um d = rec.distances[level];
        const bool at_node = (d >= tree.edge_length(v.node) - 1e-9);
        placements.push_back(Placement{v.node, at_node ? -1.0 : d});
      }
      opt = o.prev;
    }
    const Option& o0 = rec.levels[0][static_cast<std::size_t>(opt)];
    const auto& children = tree.node(v.node).children;
    if (!children.empty()) stack.push_back(Visit{children[0], o0.prev});
    if (children.size() > 1) stack.push_back(Visit{children[1], o0.prev_b});
  }

  // Apply: group placements per node, inner-most (largest distance) first.
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.distance > b.distance;
            });
  BufferInsertionResult result;
  result.est_worst_delay = best_delay;
  std::size_t i = 0;
  while (i < placements.size()) {
    const NodeId node = placements[i].node;
    NodeId cur = node;
    for (; i < placements.size() && placements[i].node == node; ++i) {
      if (placements[i].distance < 0.0) {
        tree.make_buffer(node, buffer);
      } else {
        cur = tree.insert_buffer_electrical(cur, placements[i].distance, buffer);
      }
      ++result.buffers_inserted;
    }
  }
  tree.validate();
  return result;
}

}  // namespace contango
