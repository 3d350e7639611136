#include "cts/slack.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace contango {
namespace {

constexpr Ps kInf = std::numeric_limits<double>::max();

/// Latency extremes of one domain.
struct Extremes {
  Ps lo = kInf;
  Ps hi = -kInf;
};

/// Per-domain extremes of one (corner, transition) latency vector, plus
/// the global earliest arrival (the window reference point Tref).
struct DomainExtremes {
  std::vector<Extremes> per_domain;
  Ps global_lo = kInf;
};

DomainExtremes domain_extremes(const std::vector<SinkTiming>& sinks,
                               const TimingConstraints& cons) {
  DomainExtremes e;
  e.per_domain.resize(cons.num_domains());
  for (std::size_t s = 0; s < sinks.size(); ++s) {
    if (!sinks[s].reached) continue;
    Extremes& d = e.per_domain[cons.domain_of(s)];
    d.lo = std::min(d.lo, sinks[s].latency);
    d.hi = std::max(d.hi, sinks[s].latency);
    e.global_lo = std::min(e.global_lo, sinks[s].latency);
  }
  return e;
}

/// Generalized Definition 1 for one sink: slack against the sink's own
/// domain extrema, its arrival window, and every inter-domain bound
/// touching its domain.  Reduces to (ex.hi - T, T - ex.lo) when the block
/// is trivial (one domain, no windows, no bounds).
void constrained_sink_slacks(std::size_t sink_index, Ps latency,
                             const DomainExtremes& ex,
                             const TimingConstraints& cons, Ps& slow,
                             Ps& fast) {
  const std::uint32_t d = cons.domain_of(sink_index);
  const Extremes& own = ex.per_domain[d];
  slow = std::min(slow, own.hi - latency);
  fast = std::min(fast, latency - own.lo);
  const ArrivalWindow w = cons.window_of(sink_index);
  if (!w.unbounded()) {
    const Ps r = latency - ex.global_lo;
    if (w.hi < kInf) slow = std::min(slow, w.hi - r);
    if (w.lo > -kInf) fast = std::min(fast, r - w.lo);
  }
  for (const DomainBound& b : cons.domain_bounds) {
    std::uint32_t other;
    if (b.a == d) {
      other = b.b;
    } else if (b.b == d) {
      other = b.a;
    } else {
      continue;
    }
    const Extremes& o = ex.per_domain[other];
    if (o.hi < o.lo) continue;  // no reached sinks in the other domain
    // Slowing s stretches T(s) - Tmin_other; speeding it stretches
    // Tmax_other - T(s).  Either spread is capped at b.bound.
    slow = std::min(slow, b.bound - (latency - o.lo));
    fast = std::min(fast, b.bound - (o.hi - latency));
  }
}

}  // namespace

EdgeSlacks compute_edge_slacks(const ClockTree& tree, const EvalResult& eval,
                               const SlackOptions& options) {
  EdgeSlacks slacks;
  slacks.slow.assign(tree.size(), kInf);
  slacks.fast.assign(tree.size(), kInf);

  // Sink slacks: minimum over every constraining (corner, transition).
  static const TimingConstraints kTrivial;
  const TimingConstraints& cons =
      options.constraints != nullptr ? *options.constraints : kTrivial;
  const std::vector<NodeId> topo = tree.topological_order();
  for (const CornerTiming& corner : eval.corners) {
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sinks = corner.sinks[static_cast<std::size_t>(t)];
      const DomainExtremes ex = domain_extremes(sinks, cons);
      if (ex.global_lo >= kInf) continue;
      for (NodeId id : topo) {
        const TreeNode& n = tree.node(id);
        if (!n.is_sink()) continue;
        const std::size_t s = static_cast<std::size_t>(n.sink_index);
        if (!sinks[s].reached) continue;
        constrained_sink_slacks(s, sinks[s].latency, ex, cons,
                                slacks.slow[id], slacks.fast[id]);
      }
    }
  }

  // Edge slacks: min over downstream sinks, one reverse topological sweep
  // (Lemma 1).
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    const NodeId parent = tree.node(id).parent;
    if (parent == kNoNode) continue;
    slacks.slow[parent] = std::min(slacks.slow[parent], slacks.slow[id]);
    slacks.fast[parent] = std::min(slacks.fast[parent], slacks.fast[id]);
  }

  // Delta_e (Proposition 1).  For edges below the root the parent slack is
  // the root's aggregate, which is 0 whenever any sink is critical.
  slacks.delta_slow.assign(tree.size(), 0.0);
  slacks.delta_fast.assign(tree.size(), 0.0);
  for (NodeId id : topo) {
    if (id == tree.root()) continue;
    const NodeId parent = tree.node(id).parent;
    if (slacks.slow[id] < kInf) {
      const Ps p = (slacks.slow[parent] >= kInf) ? 0.0 : slacks.slow[parent];
      slacks.delta_slow[id] = slacks.slow[id] - p;
    }
    if (slacks.fast[id] < kInf) {
      const Ps p = (slacks.fast[parent] >= kInf) ? 0.0 : slacks.fast[parent];
      slacks.delta_fast[id] = slacks.fast[id] - p;
    }
  }
  return slacks;
}

}  // namespace contango
