// The production evaluation core against its oracle: the batched kernel and
// the full/incremental/Monte-Carlo engines must be bit-identical to the
// corner-outer scalar propagation of tests/evaluate_reference.h, and the
// stages RcNetlist keeps across edits must equal a fresh extraction bit for
// bit — or refuse, when an edit changes the stage graph behind its back.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "netlist/library.h"
#include "rctree/extract.h"
#include "util/rng.h"

#include "evaluate_reference.h"

namespace contango {
namespace {

/// Every field of an EvalResult compared exactly (operator== on doubles:
/// a single ULP of drift fails the test, which is the point).
void expect_bit_identical(const EvalResult& a, const EvalResult& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.nominal_skew, b.nominal_skew);
  EXPECT_EQ(a.clr, b.clr);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.worst_slew, b.worst_slew);
  EXPECT_EQ(a.total_cap, b.total_cap);
  EXPECT_EQ(a.slew_violation, b.slew_violation);
  EXPECT_EQ(a.cap_violation, b.cap_violation);
  EXPECT_EQ(a.all_sinks_reached, b.all_sinks_reached);
  EXPECT_EQ(a.domain_skews, b.domain_skews);
  EXPECT_EQ(a.worst_window_violation, b.worst_window_violation);
  EXPECT_EQ(a.worst_domain_bound_violation, b.worst_domain_bound_violation);
  ASSERT_EQ(a.corners.size(), b.corners.size());
  for (std::size_t c = 0; c < a.corners.size(); ++c) {
    EXPECT_EQ(a.corners[c].vdd, b.corners[c].vdd);
    EXPECT_EQ(a.corners[c].max_slew, b.corners[c].max_slew);
    for (int t = 0; t < kNumTransitions; ++t) {
      const auto& sa = a.corners[c].sinks[static_cast<std::size_t>(t)];
      const auto& sb = b.corners[c].sinks[static_cast<std::size_t>(t)];
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t s = 0; s < sa.size(); ++s) {
        EXPECT_EQ(sa[s].reached, sb[s].reached);
        EXPECT_EQ(sa[s].latency, sb[s].latency);
        EXPECT_EQ(sa[s].slew, sb[s].slew);
      }
    }
  }
}

/// A realistic buffered tree: the construction half of the flow (no
/// optimization passes, so no dependence on the engine under test).
ClockTree construction_tree(const Benchmark& bench) {
  FlowOptions options;
  options.incremental = false;
  FlowResult r =
      Pipeline::from_spec("dme,repair,insert,polarity").run(bench, options);
  return std::move(r.tree);
}

/// A random stage-local RC tree: parent[i] < i (the extraction invariant
/// the kernels rely on), a mix of sink and buffer taps.
Stage random_stage(Rng& rng, int num_nodes, int num_taps) {
  Stage stage;
  stage.nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    RcNode& node = stage.nodes[static_cast<std::size_t>(i)];
    node.cap = rng.uniform(0.5, 30.0);
    if (i > 0) {
      node.parent = static_cast<int>(rng.uniform_int(0, i - 1));
      node.res = rng.uniform(0.001, 0.4);
    }
  }
  for (int k = 0; k < num_taps; ++k) {
    Tap tap;
    tap.rc_index = static_cast<int>(rng.uniform_int(1, num_nodes - 1));
    tap.is_sink = rng.uniform_int(0, 1) != 0;
    tap.sink_index = tap.is_sink ? k : -1;
    tap.pin_cap = rng.uniform(1.0, 20.0);
    stage.taps.push_back(tap);
  }
  stage.driver_pin_cap = rng.uniform(0.0, 8.0);
  return stage;
}

/// The bits of `x`, so doubles compare exactly (signed zeros included).
std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Every field of two stages compared bit for bit.
void expect_same_stage(const Stage& got, const Stage& want, int slot) {
  SCOPED_TRACE("slot " + std::to_string(slot));
  EXPECT_EQ(got.driver, want.driver);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(bits(got.nodes[i].cap), bits(want.nodes[i].cap)) << "node " << i;
    EXPECT_EQ(got.nodes[i].parent, want.nodes[i].parent) << "node " << i;
    EXPECT_EQ(bits(got.nodes[i].res), bits(want.nodes[i].res)) << "node " << i;
  }
  ASSERT_EQ(got.taps.size(), want.taps.size());
  for (std::size_t k = 0; k < want.taps.size(); ++k) {
    EXPECT_EQ(got.taps[k].tree_node, want.taps[k].tree_node) << "tap " << k;
    EXPECT_EQ(got.taps[k].rc_index, want.taps[k].rc_index) << "tap " << k;
    EXPECT_EQ(got.taps[k].is_sink, want.taps[k].is_sink) << "tap " << k;
    EXPECT_EQ(got.taps[k].sink_index, want.taps[k].sink_index) << "tap " << k;
    EXPECT_EQ(bits(got.taps[k].pin_cap), bits(want.taps[k].pin_cap)) << "tap " << k;
  }
  EXPECT_EQ(got.downstream_stages, want.downstream_stages);
  EXPECT_EQ(bits(got.driver_pin_cap), bits(want.driver_pin_cap));
  EXPECT_EQ(got.driver_inverts, want.driver_inverts);
  EXPECT_EQ(bits(got.driver_res_nom), bits(want.driver_res_nom));
  EXPECT_EQ(bits(got.driver_intrinsic_nom), bits(want.driver_intrinsic_nom));
}

/// Slot i of `net` is stage i of `fresh`, downstream stages as slot ids:
/// what a fresh build numbers (Monte-Carlo supply offsets rely on it), and
/// what per-stage re-extraction promises to keep.
void expect_slots_are_stages(const RcNetlist& net, const StagedNetlist& fresh) {
  ASSERT_EQ(net.slot_count(), fresh.stages.size());
  for (std::size_t i = 0; i < fresh.stages.size(); ++i) {
    expect_same_stage(net.stage(static_cast<int>(i)), fresh.stages[i],
                      static_cast<int>(i));
  }
}

void expect_fresh_slots_are_stages(const ClockTree& tree, const Benchmark& bench) {
  RcNetlist rc;
  rc.build(tree, bench);
  expect_slots_are_stages(rc, extract_stages(tree, bench));
}

// --------------------------------------------------------------- kernel ----

TEST(Batch, KernelRowsMatchScalarCallsExactly) {
  Rng rng(0xBA7C4);
  const TransientSimulator sim;
  for (int rep = 0; rep < 12; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    const int num_nodes = static_cast<int>(rng.uniform_int(2, 40));
    const int num_taps = static_cast<int>(rng.uniform_int(1, 6));
    const Stage stage = random_stage(rng, num_nodes, num_taps);

    std::vector<BatchDrive> drives;
    for (int b = 0; b < 5; ++b) {
      drives.push_back(BatchDrive{rng.uniform(0.05, 1.2), rng.uniform(5.0, 40.0),
                                  rng.uniform(2.0, 60.0)});
    }

    TransientScratch scratch;
    std::vector<TapTiming> out(drives.size() * stage.taps.size());
    sim.simulate_stage_batch(stage, drives.data(), drives.size(), out.data(),
                             scratch);

    // Each row must equal a batch of one with the same drive.
    for (std::size_t b = 0; b < drives.size(); ++b) {
      std::vector<TapTiming> scalar(stage.taps.size());
      sim.simulate_stage_batch(stage, &drives[b], 1, scalar.data(), scratch);
      for (std::size_t k = 0; k < scalar.size(); ++k) {
        EXPECT_EQ(out[b * stage.taps.size() + k].delay, scalar[k].delay);
        EXPECT_EQ(out[b * stage.taps.size() + k].slew, scalar[k].slew);
      }
    }
  }
}

// ------------------------------------------------------------ full eval ----

TEST(Batch, FullPropagationMatchesReferenceOnEveryFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 1, 24);
    const ClockTree tree = construction_tree(bench);

    Evaluator evaluator(bench);
    expect_bit_identical(evaluator.evaluate(tree),
                         reference::evaluate_tree(tree, bench),
                         "Evaluator vs reference");
    expect_fresh_slots_are_stages(tree, bench);
  }
}

TEST(Batch, FullEvaluationMatchesReferenceAtAnyThreadCount) {
  // Full-size construction trees, where breadth-first stage order and
  // extraction order disagree at most stages.
  for (const char* family : {"obstacle_dense", "usefulskew"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 1);
    const ClockTree tree = construction_tree(bench);
    expect_fresh_slots_are_stages(tree, bench);

    const EvalResult ref = reference::evaluate_tree(tree, bench);
    for (const int threads : {1, 2, 4}) {
      EvalOptions options;
      options.threads = threads;
      Evaluator evaluator(bench, options);
      expect_bit_identical(evaluator.evaluate(tree), ref,
                           "Evaluator at " + std::to_string(threads) + " threads");
      EXPECT_EQ(evaluator.full_evals(), 1);
    }
  }
}

TEST(Batch, EvaluatorCountsStageEvals) {
  const Benchmark bench = make_scenario("uniform", 2, 20);
  const ClockTree tree = construction_tree(bench);
  const StagedNetlist net = extract_stages(tree, bench);
  const long units = static_cast<long>(net.stages.size()) *
                     static_cast<long>(bench.tech.corners.size()) *
                     kNumTransitions;

  Evaluator evaluator(bench);
  (void)evaluator.evaluate(tree);
  EXPECT_EQ(evaluator.batched_stage_evals(), units);
  (void)evaluator.evaluate(tree);
  EXPECT_EQ(evaluator.batched_stage_evals(), 2 * units);
}

// ------------------------------------------------------------------ flow ----

TEST(Batch, FlowResultMatchesReferenceOnEveryFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 5, 16);
    const FlowResult r = run_contango(bench);
    expect_bit_identical(r.eval, reference::evaluate_tree(r.tree, bench),
                         "final evaluation vs reference");
    EXPECT_GT(r.batched_stage_evals, 0);
  }
}

// ----------------------------------------------------------- incremental ----

TEST(Batch, IncrementalMatchesReferenceAfterEdits) {
  const Benchmark bench = make_scenario("ring", 3, 24);
  ClockTree tree = construction_tree(bench);

  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);

  expect_bit_identical(inc.evaluate(), reference::evaluate_tree(tree, bench),
                       "cold incremental vs reference");
  EXPECT_GT(inc_owner.batched_stage_evals(), 0);

  // Warm replay simulates nothing new — the counter must not move.
  const long after_cold = inc_owner.batched_stage_evals();
  expect_bit_identical(inc.evaluate(), reference::evaluate_tree(tree, bench),
                       "warm incremental vs reference");
  EXPECT_EQ(inc_owner.batched_stage_evals(), after_cold);

  std::vector<NodeId> edges, buffers;
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root()) edges.push_back(id);
    if (tree.node(id).is_buffer() && tree.node(id).children.size() == 1) {
      buffers.push_back(id);
    }
  }
  ASSERT_FALSE(edges.empty());
  ASSERT_FALSE(buffers.empty());

  TreeEditSession session(tree, &inc.netlist());
  session.set_wire_width(edges[edges.size() / 2], 0);
  session.add_snake(edges[edges.size() / 3], 40.0);
  expect_bit_identical(inc.evaluate(), reference::evaluate_tree(tree, bench),
                       "incremental vs reference after wire edits");
  EXPECT_GT(inc_owner.batched_stage_evals(), after_cold);

  // A resized driver: its own stage and its parent's re-extract.
  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 2});
  expect_bit_identical(inc.evaluate(), reference::evaluate_tree(tree, bench),
                       "incremental vs reference after buffer edits");
  session.commit();
}

TEST(Batch, RefreshedSlotsEqualAFreshExtractionUnderRandomizedEdits) {
  // RcNetlist re-extracts only the stages an edit dirties and promises
  // each is bit-identical to its counterpart in a from-scratch extraction
  // (rctree/extract.h).  After every edit, every slot must be stage i of
  // extract_stages() on the edited tree, field for field.
  for (const char* family : {"uniform", "high_fanout", "mixed_cap"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 11, 20);
    ClockTree tree = construction_tree(bench);

    Evaluator inc_owner(bench);
    IncrementalEvaluator inc(inc_owner);
    inc.bind(tree);
    (void)inc.evaluate();
    expect_slots_are_stages(inc.netlist(), extract_stages(tree, bench));

    Rng rng(0x50A ^ std::hash<std::string>{}(family));
    for (int step = 0; step < 24; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      TreeEditSession session(tree, &inc.netlist());
      std::vector<NodeId> edges, buffers;
      for (NodeId id : tree.topological_order()) {
        if (id != tree.root()) edges.push_back(id);
        if (tree.node(id).is_buffer() && tree.node(id).children.size() == 1) {
          buffers.push_back(id);
        }
      }
      const auto pick = [&](const std::vector<NodeId>& v) {
        return v[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
      };

      ASSERT_FALSE(buffers.empty());

      // Width, snake and buffer-size edits: a snake can grow its stage by
      // nodes, a resize touches the buffer's stage and its parent's.
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          const NodeId e = pick(edges);
          session.set_wire_width(e, tree.node(e).wire_width == 0 ? 1 : 0);
          break;
        }
        case 1:
          session.add_snake(pick(edges), rng.uniform(5.0, 80.0));
          break;
        default: {
          const NodeId b = pick(buffers);
          const CompositeBuffer old = tree.node(b).buffer;
          const int delta = rng.uniform_int(0, 1) ? 1 : -1;
          session.set_buffer(
              b, CompositeBuffer{old.inverter_type,
                                 std::max(1, old.count + 2 * delta)});
          break;
        }
      }
      session.commit();
      tree.validate();
      (void)inc.evaluate();  // refresh + re-simulate the dirty stages
      expect_slots_are_stages(inc.netlist(), extract_stages(tree, bench));
    }
  }
}

/// source -> n1 -> {b1 -> s0, s1}: stage 0 taps b1 and s1 and drives one
/// downstream stage, b1's, which taps s0.
struct TwoStageTree {
  ClockTree tree;
  NodeId n1 = kNoNode, b1 = kNoNode, s0 = kNoNode, s1 = kNoNode;
};

TwoStageTree two_stage_tree() {
  TwoStageTree t;
  const NodeId root = t.tree.add_source(Point{0, 0});
  t.n1 = t.tree.add_child(root, NodeKind::kInternal, Point{500, 500});
  t.b1 = t.tree.add_child(t.n1, NodeKind::kBuffer, Point{1000, 1000});
  t.tree.node(t.b1).buffer = CompositeBuffer{0, 4};
  t.s0 = t.tree.add_child(t.b1, NodeKind::kSink, Point{1500, 1000});
  t.tree.node(t.s0).sink_index = 0;
  t.s1 = t.tree.add_child(t.n1, NodeKind::kSink, Point{500, 1500});
  t.tree.node(t.s1).sink_index = 1;
  t.tree.validate();
  return t;
}

TEST(Batch, StructuralEditMarkedAsAValueEditThrows) {
  // Value edits keep each stage's tap and downstream-stage counts; an edit
  // that changes either changes the stage graph, which only
  // mark_all_dirty() rebuilds.  Marked as a value edit, the refresh must
  // refuse and leave the slot as it was.
  Benchmark bench;
  bench.name = "two_stage";
  bench.die = Rect{0, 0, 2000, 2000};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks = {Sink{"s0", Point{1500, 1000}, 10.0},
                 Sink{"s1", Point{500, 1500}, 10.0}};

  for (const bool splice : {false, true}) {
    SCOPED_TRACE(splice ? "b1 spliced out: no downstream stage, not one"
                        : "s0 moved under n1: three taps, not two");
    TwoStageTree t = two_stage_tree();
    RcNetlist net;
    net.build(t.tree, bench);
    ASSERT_EQ(net.slot_count(), 2u);
    ASSERT_EQ(net.stage(0).taps.size(), 2u);
    ASSERT_EQ(net.stage(0).downstream_stages.size(), 1u);
    const Stage before = net.stage(0);
    const std::uint64_t version = net.version(0);

    if (splice) {
      t.tree.splice_out(t.b1);  // s0 takes b1's place: still two taps
    } else {
      t.tree.reparent(t.s0, t.n1, {Point{500, 500}, Point{1500, 500},
                                   Point{1500, 1000}});
    }
    net.mark_edge_dirty(t.s0);  // the root stage's slot, either way
    try {
      net.refresh();
      ADD_FAILURE() << "refresh re-extracted a changed stage graph";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("mark_all_dirty"), std::string::npos)
          << e.what();
    }
    expect_same_stage(net.stage(0), before, 0);
    EXPECT_EQ(net.version(0), version);

    // The full rebuild takes the new graph.
    net.mark_all_dirty();
    net.refresh();
    expect_slots_are_stages(net, extract_stages(t.tree, bench));
  }
}

// ------------------------------------------------------------ Monte-Carlo ----

TEST(Batch, MonteCarloMatchesReferenceAtFixedSeeds) {
  // "usefulskew" carries arrival windows, so the per-trial constraint
  // violation is exercised too.
  for (const char* family : {"clustered", "usefulskew"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 9, 20);
    const ClockTree tree = construction_tree(bench);

    VariationModel model;
    model.seed = 77;
    model.sigma_vdd = 0.05;
    model.sigma_wire_r = 0.03;
    model.sigma_wire_c = 0.03;
    model.sigma_sink_cap = 0.02;

    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      McOptions options;
      options.trials = 40;  // spans more than one 32-trial block
      options.threads = threads;
      const McReport mc = run_montecarlo(bench, tree, model, options);

      // Reference: each trial's AoS-perturbed netlist through the scalar
      // corner-outer propagation.  Every per-trial number must match exactly.
      const StagedNetlist base = extract_stages(tree, bench);
      expect_bit_identical(mc.nominal, reference::evaluate_tree(tree, bench),
                           "MC nominal reference");
      ASSERT_EQ(mc.samples.size(), static_cast<std::size_t>(options.trials));
      StreamingStats skew_stats, clr_stats;
      std::vector<double> skews, clrs, latencies;
      long legal = 0, pass = 0;
      for (int trial = 0; trial < options.trials; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const TrialVariation v = sample_trial(model, bench.tech, trial,
                                              base.stages.size(), bench.sinks.size());
        const EvalResult ref = reference::evaluate_netlist(
            reference::apply_variation(base, v), bench, TransientOptions{}, 10.0,
            &v.stage_vdd_delta);
        const McTrial& t = mc.samples[static_cast<std::size_t>(trial)];
        EXPECT_EQ(t.skew, ref.nominal_skew);
        EXPECT_EQ(t.clr, ref.clr);
        EXPECT_EQ(t.max_latency, ref.max_latency);
        EXPECT_EQ(t.worst_slew, ref.worst_slew);
        EXPECT_EQ(t.constraint_violation, ref.constraint_violation());
        const bool ref_legal = !ref.slew_violation && ref.all_sinks_reached;
        EXPECT_EQ(t.legal, ref_legal);
        skew_stats.add(ref.nominal_skew);
        clr_stats.add(ref.clr);
        skews.push_back(ref.nominal_skew);
        clrs.push_back(ref.clr);
        latencies.push_back(ref.max_latency);
        if (ref_legal) {
          ++legal;
          if (ref.nominal_skew <= options.skew_target &&
              ref.constraint_violation() <= 0.0) {
            ++pass;
          }
        }
      }

      // Summaries: order statistics and counts are exact; the moments are
      // merged over 32-trial blocks in the driver and streamed here, so they
      // may differ in the last bits.
      constexpr double kTol = 1e-9;
      EXPECT_NEAR(mc.skew.mean, skew_stats.mean(), kTol);
      EXPECT_NEAR(mc.skew.stddev, skew_stats.stddev(), kTol);
      EXPECT_NEAR(mc.clr.mean, clr_stats.mean(), kTol);
      EXPECT_EQ(mc.skew.p95, percentile(skews, 95.0));
      EXPECT_EQ(mc.clr.p99, percentile(clrs, 99.0));
      EXPECT_EQ(mc.max_latency.max, *std::max_element(latencies.begin(), latencies.end()));
      EXPECT_EQ(mc.legal_fraction,
                static_cast<double>(legal) / static_cast<double>(options.trials));
      EXPECT_EQ(mc.yield, static_cast<double>(pass) / static_cast<double>(options.trials));

      // Work accounting: (trials + nominal) x stages x corners x transitions.
      EXPECT_EQ(mc.batched_stage_evals,
                static_cast<long>(options.trials + 1) *
                    static_cast<long>(base.stages.size()) *
                    static_cast<long>(bench.tech.corners.size()) * kNumTransitions);
    }
  }
}

}  // namespace
}  // namespace contango
