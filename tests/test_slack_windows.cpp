#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/dme.h"
#include "cts/slack.h"
#include "cts/vanginneken.h"
#include "netlist/constraints.h"
#include "netlist/generators.h"
#include "util/rng.h"

namespace contango {
namespace {

/// \file test_slack_windows.cpp
/// \brief Differential suite of the constraint-generalized slack analysis
/// (cts/slack.h): a trivial TimingConstraints block must reproduce the
/// legacy compute_edge_slacks() bit-for-bit, and randomized windowed /
/// multi-domain cases are checked against a brute-force per-sink reference
/// that re-derives the generalized Definition 1 directly from the
/// evaluation result, bypassing the production topo-sweep entirely.

constexpr double kInf = std::numeric_limits<double>::max();
constexpr double kIeeeInf = std::numeric_limits<double>::infinity();

/// A buffered tree over a small benchmark plus its evaluation.
struct WindowFixture {
  Benchmark bench;
  ClockTree tree;
  EvalResult eval;
};

WindowFixture make_setup(int n_sinks, std::uint64_t seed) {
  WindowFixture s;
  s.bench.name = "slack_windows";
  s.bench.die = Rect{0, 0, 6000, 6000};
  s.bench.source = Point{3000, 0};
  s.bench.tech = ispd09_technology();
  s.bench.tech.cap_limit = 1e9;
  Rng rng(seed);
  for (int i = 0; i < n_sinks; ++i) {
    s.bench.sinks.push_back(
        Sink{"s" + std::to_string(i),
             Point{rng.uniform(200, 5800), rng.uniform(200, 5800)},
             rng.uniform(5.0, 30.0)});
  }
  s.tree = build_zst(s.bench);
  insert_buffers(s.tree, s.bench, CompositeBuffer{0, 8});
  Evaluator eval(s.bench);
  s.eval = eval.evaluate(s.tree);
  return s;
}

/// Randomized non-trivial constraint block over `n_sinks` sinks: 2-3
/// domains, windows on about half the sinks (some one-sided), and a bound
/// on every domain pair.
TimingConstraints random_constraints(int n_sinks, std::uint64_t seed) {
  Rng rng(seed);
  TimingConstraints cons;
  const int num_domains = rng.uniform_int(2, 3);
  for (int d = 0; d < num_domains; ++d) {
    cons.domain_names.push_back("d" + std::to_string(d));
  }
  for (int i = 0; i < n_sinks; ++i) {
    cons.sink_domains.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, num_domains - 1)));
  }
  cons.sink_windows.assign(static_cast<std::size_t>(n_sinks), ArrivalWindow{});
  for (int i = 0; i < n_sinks; ++i) {
    if (!rng.chance(0.5)) continue;
    ArrivalWindow& w = cons.sink_windows[static_cast<std::size_t>(i)];
    if (rng.chance(0.3)) {
      w.hi = rng.uniform(2.0, 40.0);  // upper bound only
    } else if (rng.chance(0.3)) {
      w.lo = rng.uniform(0.0, 10.0);  // lower bound only
    } else {
      w.lo = rng.uniform(0.0, 10.0);
      w.hi = w.lo + rng.uniform(1.0, 30.0);
    }
  }
  for (int a = 0; a < num_domains; ++a) {
    for (int b = a + 1; b < num_domains; ++b) {
      if (!rng.chance(0.7)) continue;
      DomainBound bound;
      bound.a = static_cast<std::uint32_t>(a);
      bound.b = static_cast<std::uint32_t>(b);
      bound.bound = rng.uniform(5.0, 60.0);
      cons.domain_bounds.push_back(bound);
    }
  }
  cons.normalize();
  validate_constraints(cons, static_cast<std::size_t>(n_sinks), "test");
  return cons;
}

/// Brute-force per-sink slacks, indexed by *sink index* (not NodeId): for
/// every (corner, transition), recompute the domain extrema and the window
/// reference from scratch and apply the generalized Definition 1 caps one
/// by one.  Deliberately flat and index-based — no ClockTree, no topo
/// order — so it shares no code path with the production sweep.
struct RefSlacks {
  std::vector<double> slow;
  std::vector<double> fast;
};

RefSlacks reference_sink_slacks(const EvalResult& eval,
                                const TimingConstraints& cons,
                                std::size_t n_sinks) {
  RefSlacks ref;
  ref.slow.assign(n_sinks, kInf);
  ref.fast.assign(n_sinks, kInf);
  const std::size_t nd = cons.num_domains();
  for (const CornerTiming& corner : eval.corners) {
    for (int t = 0; t < kNumTransitions; ++t) {
      const std::vector<SinkTiming>& sinks =
          corner.sinks[static_cast<std::size_t>(t)];
      std::vector<double> lo(nd, kInf), hi(nd, -kInf);
      double global_lo = kInf;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (!sinks[s].reached) continue;
        const std::uint32_t d = cons.domain_of(s);
        lo[d] = std::min(lo[d], sinks[s].latency);
        hi[d] = std::max(hi[d], sinks[s].latency);
        global_lo = std::min(global_lo, sinks[s].latency);
      }
      if (global_lo >= kInf) continue;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (!sinks[s].reached) continue;
        const double latency = sinks[s].latency;
        const std::uint32_t d = cons.domain_of(s);
        double slow = hi[d] - latency;
        double fast = latency - lo[d];
        const ArrivalWindow w = cons.window_of(s);
        const double r = latency - global_lo;
        if (w.hi < kIeeeInf) slow = std::min(slow, w.hi - r);
        if (w.lo > -kIeeeInf) fast = std::min(fast, r - w.lo);
        for (const DomainBound& b : cons.domain_bounds) {
          std::uint32_t other;
          if (b.a == d) {
            other = b.b;
          } else if (b.b == d) {
            other = b.a;
          } else {
            continue;
          }
          if (hi[other] < lo[other]) continue;
          slow = std::min(slow, b.bound - (latency - lo[other]));
          fast = std::min(fast, b.bound - (hi[other] - latency));
        }
        ref.slow[s] = std::min(ref.slow[s], slow);
        ref.fast[s] = std::min(ref.fast[s], fast);
      }
    }
  }
  return ref;
}

TEST(SlackWindows, TrivialBlockReproducesLegacySlacksBitForBit) {
  const WindowFixture s = make_setup(18, 11);
  const EdgeSlacks legacy = compute_edge_slacks(s.tree, s.eval);

  // Both a default-constructed block and a logically-trivial one with
  // explicit all-default vectors must take the legacy code path.
  TimingConstraints defaulted;
  TimingConstraints all_default;
  all_default.sink_domains.assign(s.bench.sinks.size(), 0);
  all_default.sink_windows.assign(s.bench.sinks.size(), ArrivalWindow{});
  ASSERT_TRUE(defaulted.trivial());
  ASSERT_TRUE(all_default.trivial());

  for (const TimingConstraints* cons : {&defaulted, &all_default}) {
    SlackOptions options;
    options.constraints = cons;
    const EdgeSlacks got = compute_edge_slacks(s.tree, s.eval, options);
    ASSERT_EQ(got.slow.size(), legacy.slow.size());
    for (std::size_t i = 0; i < legacy.slow.size(); ++i) {
      EXPECT_EQ(got.slow[i], legacy.slow[i]) << "node " << i;
      EXPECT_EQ(got.fast[i], legacy.fast[i]) << "node " << i;
      EXPECT_EQ(got.delta_slow[i], legacy.delta_slow[i]) << "node " << i;
      EXPECT_EQ(got.delta_fast[i], legacy.delta_fast[i]) << "node " << i;
    }
  }
}

TEST(SlackWindows, RandomizedConstraintsMatchBruteForceReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const WindowFixture s = make_setup(22, seed);
    const TimingConstraints cons =
        random_constraints(static_cast<int>(s.bench.sinks.size()), seed * 31);
    SlackOptions options;
    options.constraints = &cons;
    const EdgeSlacks got = compute_edge_slacks(s.tree, s.eval, options);
    const RefSlacks ref =
        reference_sink_slacks(s.eval, cons, s.bench.sinks.size());

    for (NodeId id : s.tree.topological_order()) {
      const TreeNode& n = s.tree.node(id);
      if (!n.is_sink()) continue;
      const std::size_t sink = static_cast<std::size_t>(n.sink_index);
      EXPECT_DOUBLE_EQ(got.slow[id], ref.slow[sink])
          << "seed " << seed << " sink " << sink;
      EXPECT_DOUBLE_EQ(got.fast[id], ref.fast[sink])
          << "seed " << seed << " sink " << sink;
    }
  }
}

TEST(SlackWindows, ConstraintsOnlyTightenSlacks) {
  // Domain extrema nest inside the global extrema and windows/bounds only
  // add caps, so every constrained slack is at most its legacy value.
  const WindowFixture s = make_setup(20, 5);
  const EdgeSlacks legacy = compute_edge_slacks(s.tree, s.eval);
  const TimingConstraints cons =
      random_constraints(static_cast<int>(s.bench.sinks.size()), 77);
  SlackOptions options;
  options.constraints = &cons;
  const EdgeSlacks got = compute_edge_slacks(s.tree, s.eval, options);
  for (std::size_t i = 0; i < legacy.slow.size(); ++i) {
    EXPECT_LE(got.slow[i], legacy.slow[i]) << "node " << i;
    EXPECT_LE(got.fast[i], legacy.fast[i]) << "node " << i;
  }
}

TEST(SlackWindows, ViolatedUpperWindowGivesNegativeSlowSlack) {
  const WindowFixture s = make_setup(14, 9);

  // Pick the nominal-corner rise-transition latest sink and give it an
  // upper window 5 ps below its current worst relative arrival: its slow
  // slack must go negative by at least that margin.
  const std::vector<SinkTiming>& sinks = s.eval.corners[0].sinks[0];
  std::size_t latest = 0;
  double global_lo = kInf;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (sinks[i].latency > sinks[latest].latency) latest = i;
    global_lo = std::min(global_lo, sinks[i].latency);
  }
  const double r = sinks[latest].latency - global_lo;
  ASSERT_GT(r, 0.0);

  TimingConstraints cons;
  cons.sink_windows.assign(s.bench.sinks.size(), ArrivalWindow{});
  cons.sink_windows[latest].hi = r - 5.0;

  SlackOptions options;
  options.constraints = &cons;
  const EdgeSlacks got = compute_edge_slacks(s.tree, s.eval, options);
  for (NodeId id : s.tree.topological_order()) {
    const TreeNode& n = s.tree.node(id);
    if (!n.is_sink() || static_cast<std::size_t>(n.sink_index) != latest)
      continue;
    EXPECT_LE(got.slow[id], -5.0);
    // The violation propagates to the edge slack of every ancestor.
    NodeId parent = n.parent;
    while (parent != kNoNode) {
      EXPECT_LE(got.slow[parent], got.slow[id] + 1e-12);
      parent = s.tree.node(parent).parent;
    }
  }
}

}  // namespace
}  // namespace contango
