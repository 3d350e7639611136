#include "cts/dme.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "geom/spatial.h"
#include "util/log.h"

namespace contango {
namespace {

Ps wire_delay(Um len, Ff load, KOhm r, Ff c) {
  return r * len * (c * len / 2.0 + load);
}

/// Wire length needed to add exactly `extra` delay when driving `load`:
/// solves (rc/2) L^2 + r*load*L - extra = 0 for L >= 0.
Um length_for_delay(Ps extra, Ff load, KOhm r, Ff c) {
  if (extra <= 0.0) return 0.0;
  const double a = r * c / 2.0;
  const double b = r * load;
  if (a <= 0.0) return (b > 0.0) ? extra / b : 0.0;
  return (-b + std::sqrt(b * b + 4.0 * a * extra)) / (2.0 * a);
}

/// One active subtree during bottom-up merging.
struct MergeItem {
  TiltedRect region;
  Ps delay = 0.0;  ///< root-to-sink delay of the subtree (equal to all sinks)
  Ff cap = 0.0;    ///< downstream capacitance seen at the subtree root
  int left = -1, right = -1;  ///< children in the merge forest
  int sink = -1;              ///< benchmark sink index for leaves
  Um e_left = 0.0, e_right = 0.0;  ///< planned wire lengths to children
};

/// Exact nearest-neighbour search over the active merge items, by
/// merge-region distance with (distance, item index) tie-breaking: a kd-tree
/// over the regions (O(log n) amortized per query) that computes the same
/// lexicographic argmin, with the same TiltedRect::distance bits, as a
/// linear scan over the active items.
class NeighbourFinder {
 public:
  NeighbourFinder(const std::vector<MergeItem>& items,
                  const std::vector<int>& active)
      : items_(items) {
    std::vector<TiltedNnIndex::Entry> entries;
    entries.reserve(active.size());
    for (int idx : active) {
      entries.push_back(TiltedNnIndex::Entry{
          items[static_cast<std::size_t>(idx)].region, idx});
    }
    index_ = TiltedNnIndex(std::move(entries));
  }

  /// Nearest active item to `self`, or -1 when `self` is the only one.
  int nearest(int self) const {
    const TiltedRect& me = items_[static_cast<std::size_t>(self)].region;
    return index_.nearest(me, [self](int cand) { return cand != self; });
  }

 private:
  const std::vector<MergeItem>& items_;
  TiltedNnIndex index_;
};

}  // namespace

ZstMerge zero_skew_merge(Ps t_a, Ff c_a, Ps t_b, Ff c_b, Um dist, KOhm r,
                         Ff c) {
  ZstMerge m;
  auto f = [&](Um x) {
    return (t_a + wire_delay(x, c_a, r, c)) -
           (t_b + wire_delay(dist - x, c_b, r, c));
  };
  if (f(0.0) >= 0.0) {
    // Side a is no faster even when tapped at its root: the tap sits on a's
    // region and b's wire is extended to L with t_b + delay(L, c_b) = t_a.
    // f(0) >= 0 guarantees L >= dist.
    m.e_a = 0.0;
    m.e_b = length_for_delay(t_a - t_b, c_b, r, c);
    m.delay = t_a;
  } else if (f(dist) <= 0.0) {
    m.e_b = 0.0;
    m.e_a = length_for_delay(t_b - t_a, c_a, r, c);
    m.delay = t_b;
  } else {
    // Interior balance point: f is strictly increasing; bisect.
    Um lo = 0.0, hi = dist;
    for (int it = 0; it < 100; ++it) {
      const Um mid = (lo + hi) / 2.0;
      if (f(mid) >= 0.0) hi = mid;
      else lo = mid;
    }
    m.e_a = (lo + hi) / 2.0;
    m.e_b = dist - m.e_a;
    m.delay = t_a + wire_delay(m.e_a, c_a, r, c);
  }
  return m;
}

ZstMerge pathlength_merge(Um len_a, Um len_b, Um dist) {
  ZstMerge m;
  // Balance e_a + len_a = e_b + len_b with e_a + e_b = dist when possible.
  const Um e_a = (dist + len_b - len_a) / 2.0;
  if (e_a < 0.0) {
    m.e_a = 0.0;
    m.e_b = len_a - len_b;  // >= dist here
  } else if (e_a > dist) {
    m.e_a = len_b - len_a;
    m.e_b = 0.0;
  } else {
    m.e_a = e_a;
    m.e_b = dist - e_a;
  }
  m.delay = len_a + m.e_a;
  return m;
}

ClockTree build_zst(const Benchmark& bench, const DmeOptions& options) {
  const int width = options.wire_width >= 0
                        ? options.wire_width
                        : static_cast<int>(bench.tech.wires.size()) - 1;
  const WireType& wire = bench.tech.wires.at(static_cast<std::size_t>(width));
  const KOhm r = wire.r_per_um;
  const Ff c = wire.c_per_um;

  // Leaves of the merge forest: one item per sink.
  std::vector<MergeItem> items;
  items.reserve(2 * bench.sinks.size());
  std::vector<int> active;
  for (std::size_t i = 0; i < bench.sinks.size(); ++i) {
    MergeItem item;
    item.region = TiltedRect::from_point(bench.sinks[i].position);
    item.cap = bench.sinks[i].cap;
    item.sink = static_cast<int>(i);
    active.push_back(static_cast<int>(items.size()));
    items.push_back(item);
  }

  // Bottom-up: rounds of greedy nearest-neighbour matching on
  // (distance, index)-lexicographic neighbours.
  while (active.size() > 1) {
    NeighbourFinder finder(items, active);

    // Collect (distance, a, b) candidate pairs from each item's NN.
    struct Pair {
      double d;
      int a, b;
    };
    std::vector<Pair> pairs;
    pairs.reserve(active.size());
    for (int idx : active) {
      const int nn = finder.nearest(idx);
      if (nn >= 0) {
        pairs.push_back(Pair{items[static_cast<std::size_t>(idx)].region.distance(
                                 items[static_cast<std::size_t>(nn)].region),
                             idx, nn});
      }
    }
    // stable_sort keeps equal-distance pairs in active order: the greedy
    // accept below is then a pure function of the (identical) NN answers.
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Pair& x, const Pair& y) { return x.d < y.d; });
    std::vector<char> taken(items.size(), 0);

    std::vector<int> next_active;
    for (const Pair& p : pairs) {
      if (taken[static_cast<std::size_t>(p.a)] || taken[static_cast<std::size_t>(p.b)]) continue;
      taken[static_cast<std::size_t>(p.a)] = taken[static_cast<std::size_t>(p.b)] = 1;
      const MergeItem& ia = items[static_cast<std::size_t>(p.a)];
      const MergeItem& ib = items[static_cast<std::size_t>(p.b)];
      const Um dist = ia.region.distance(ib.region);
      const ZstMerge zm =
          options.balance == DmeBalance::kElmore
              ? zero_skew_merge(ia.delay, ia.cap, ib.delay, ib.cap, dist, r, c)
              : pathlength_merge(ia.delay, ib.delay, dist);

      MergeItem parent;
      parent.region = merge_region(ia.region, zm.e_a, ib.region, zm.e_b);
      if (!parent.region.valid()) {
        // Numerical guard: fall back to the midpoint-ish intersection by
        // clamping the smaller side.
        parent.region = ia.region.inflated(zm.e_a + 1e-6)
                            .intersection(ib.region.inflated(zm.e_b + 1e-6));
        if (!parent.region.valid()) {
          throw std::logic_error("build_zst: empty merge region");
        }
      }
      parent.delay = zm.delay;
      parent.cap = ia.cap + ib.cap + c * (zm.e_a + zm.e_b);
      parent.left = p.a;
      parent.right = p.b;
      parent.e_left = zm.e_a;
      parent.e_right = zm.e_b;
      next_active.push_back(static_cast<int>(items.size()));
      items.push_back(parent);
    }
    // Unmatched leftovers move up a round.
    for (int idx : active) {
      if (!taken[static_cast<std::size_t>(idx)]) next_active.push_back(idx);
    }
    if (next_active.size() >= active.size()) {
      throw std::logic_error("build_zst: matching made no progress");
    }
    active = std::move(next_active);
  }

  // Top-down embedding.
  ClockTree tree;
  const NodeId source = tree.add_source(bench.source);
  if (items.empty()) return tree;

  struct Frame {
    int item;
    NodeId parent;      ///< tree node to attach to
    Um planned;         ///< planned electrical length of the connecting wire
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{active.front(), source, -1.0});

  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const MergeItem& item = items[static_cast<std::size_t>(f.item)];
    const Point parent_pos = tree.node(f.parent).pos;
    // Sinks use their exact benchmark coordinates: the tilted-coordinate
    // round trip can perturb them by an epsilon, which matters when a sink
    // sits exactly on an obstacle boundary.
    const Point pos = (item.sink >= 0)
                          ? bench.sinks[static_cast<std::size_t>(item.sink)].position
                          : item.region.closest_to(parent_pos);

    const NodeKind kind = (item.sink >= 0) ? NodeKind::kSink : NodeKind::kInternal;
    const NodeId id = tree.add_child(f.parent, kind, pos);
    TreeNode& node = tree.node(id);
    node.wire_width = width;
    if (item.sink >= 0) node.sink_index = item.sink;
    if (f.planned >= 0.0) {
      const Um routed = tree.routed_length(id);
      // Planned length can exceed the routed distance (snaking was decided
      // during merging, or the parent sat inside the inflated region).
      node.snake = std::max(0.0, f.planned - routed);
    }
    if (item.left >= 0) stack.push_back(Frame{item.left, id, item.e_left});
    if (item.right >= 0) stack.push_back(Frame{item.right, id, item.e_right});
  }

  tree.validate();
  return tree;
}

}  // namespace contango
