// The production evaluation core against its oracle: the SoA kernel, the
// SoA netlist mirror and the full/incremental/Monte-Carlo engines must be
// bit-identical to the corner-outer scalar propagation of
// tests/evaluate_reference.h, and the arena allocator underneath must keep
// slices consistent across incremental edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/elmore.h"
#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "rctree/extract.h"
#include "rctree/soa.h"
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

void expect_slice_matches_stage(const NetlistSoa& soa, int slot,
                                const Stage& stage) {
  SCOPED_TRACE("slot " + std::to_string(slot));
  ASSERT_TRUE(soa.has_slot(slot));
  const NetlistSoa::View v = soa.view(slot);
  ASSERT_EQ(v.num_nodes, stage.nodes.size());
  ASSERT_EQ(v.num_taps, stage.taps.size());
  EXPECT_EQ(v.driver_pin_cap, stage.driver_pin_cap);
  for (std::size_t i = 0; i < stage.nodes.size(); ++i) {
    EXPECT_EQ(v.cap[i], stage.nodes[i].cap);
    EXPECT_EQ(v.res[i], stage.nodes[i].res);
    EXPECT_EQ(v.parent[i], stage.nodes[i].parent);
  }
  for (std::size_t k = 0; k < stage.taps.size(); ++k) {
    EXPECT_EQ(v.tap_rc[k], stage.taps[k].rc_index);
    EXPECT_EQ(v.tap_sink[k],
              stage.taps[k].is_sink ? stage.taps[k].sink_index : -1);
    EXPECT_EQ(v.tap_pin_cap[k], stage.taps[k].pin_cap);
  }
}

/// Allocator invariants over every live slot: slices hold the stage
/// contents exactly, fit their capacity, and never overlap.
void expect_soa_consistent(const RcNetlist& net) {
  const NetlistSoa& soa = net.soa();
  std::vector<std::pair<std::size_t, std::size_t>> node_slices, tap_slices;
  for (const int slot : net.topo_slots()) {
    expect_slice_matches_stage(soa, slot, net.stage(slot));
    ASSERT_GE(soa.node_capacity(slot), net.stage(slot).nodes.size());
    ASSERT_GE(soa.tap_capacity(slot), net.stage(slot).taps.size());
    ASSERT_LE(soa.node_offset(slot) + soa.node_capacity(slot),
              soa.arena_nodes());
    ASSERT_LE(soa.tap_offset(slot) + soa.tap_capacity(slot), soa.arena_taps());
    node_slices.emplace_back(soa.node_offset(slot), soa.node_capacity(slot));
    tap_slices.emplace_back(soa.tap_offset(slot), soa.tap_capacity(slot));
  }
  const auto expect_disjoint = [](std::vector<std::pair<std::size_t, std::size_t>> s,
                                  const char* plane) {
    SCOPED_TRACE(plane);
    std::sort(s.begin(), s.end());
    for (std::size_t i = 1; i < s.size(); ++i) {
      EXPECT_LE(s[i - 1].first + s[i - 1].second, s[i].first)
          << "slices overlap at offset " << s[i].first;
    }
  };
  expect_disjoint(node_slices, "node plane");
  expect_disjoint(tap_slices, "tap plane");
}

/// A freshly built RcNetlist numbers its slots like extract_stages()
/// numbers its stages (Monte-Carlo supply offsets rely on it): slot i
/// has stage i's driver and contents, with downstream stages as slot ids.
void expect_fresh_slots_are_stages(const ClockTree& tree, const Benchmark& bench) {
  const StagedNetlist net = extract_stages(tree, bench);
  RcNetlist rc;
  rc.build(tree, bench);
  ASSERT_EQ(rc.slot_count(), net.stages.size());
  for (std::size_t i = 0; i < net.stages.size(); ++i) {
    const int slot = static_cast<int>(i);
    ASSERT_TRUE(rc.slot_live(slot));
    ASSERT_EQ(rc.stage(slot).driver, net.stages[i].driver) << "slot " << i;
    EXPECT_EQ(rc.stage(slot).downstream_stages, net.stages[i].downstream_stages);
    expect_slice_matches_stage(rc.soa(), slot, net.stages[i]);
  }
}

// --------------------------------------------------------------- kernel ----

TEST(Batch, KernelRowsMatchScalarCallsExactly) {
  Rng rng(0xBA7C4);
  const TransientSimulator sim;
  for (int rep = 0; rep < 12; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    const int num_nodes = static_cast<int>(rng.uniform_int(2, 40));
    const int num_taps = static_cast<int>(rng.uniform_int(1, 6));
    StagedNetlist net;
    net.stages.push_back(random_stage(rng, num_nodes, num_taps));
    const Stage& stage = net.stages[0];

    std::vector<BatchDrive> drives;
    for (int b = 0; b < 5; ++b) {
      drives.push_back(BatchDrive{rng.uniform(0.05, 1.2), rng.uniform(5.0, 40.0),
                                  rng.uniform(2.0, 60.0)});
    }

    NetlistSoa soa;
    soa.build(net);
    TransientScratch scratch;
    std::vector<TapTiming> out(drives.size() * stage.taps.size());
    sim.simulate_stage_batch(soa.view(0), drives.data(), drives.size(),
                             out.data(), scratch);

    // Each row must equal a batch of one with the same drive.
    for (std::size_t b = 0; b < drives.size(); ++b) {
      std::vector<TapTiming> scalar(stage.taps.size());
      sim.simulate_stage_batch(soa.view(0), &drives[b], 1, scalar.data(), scratch);
      for (std::size_t k = 0; k < scalar.size(); ++k) {
        EXPECT_EQ(out[b * stage.taps.size() + k].delay, scalar[k].delay);
        EXPECT_EQ(out[b * stage.taps.size() + k].slew, scalar[k].slew);
      }
    }

    // Borrowing the Elmore sweep must change nothing either.
    const ElmoreStage elm(stage);
    const ElmoreView borrowed{elm.tau_data(), elm.total_cap()};
    std::vector<TapTiming> out2(out.size());
    sim.simulate_stage_batch(soa.view(0), drives.data(), drives.size(),
                             out2.data(), scratch, &borrowed);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out2[i].delay, out[i].delay);
      EXPECT_EQ(out2[i].slew, out[i].slew);
    }
  }
}

// ------------------------------------------------------------ full eval ----

TEST(Batch, FullPropagationMatchesReferenceOnEveryFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 1, 24);
    const ClockTree tree = construction_tree(bench);
    const StagedNetlist net = extract_stages(tree, bench);

    Evaluator evaluator(bench);
    expect_bit_identical(evaluator.evaluate(tree),
                         reference::evaluate_tree(tree, bench),
                         "Evaluator vs reference");

    // Lock the SoA mirror against the netlist it was built from.
    NetlistSoa soa;
    soa.build(net);
    for (std::size_t si = 0; si < net.stages.size(); ++si) {
      expect_slice_matches_stage(soa, static_cast<int>(si), net.stages[si]);
    }
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

  evaluator.reset_sim_runs();
  EXPECT_EQ(evaluator.batched_stage_evals(), 0);
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

  // A stage split and a resized driver: the stage graph itself changes.
  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 2});
  const NodeId e = edges[2 * edges.size() / 3];
  session.insert_buffer_electrical(e, tree.edge_length(e) * 0.5,
                                   CompositeBuffer{0, 2});
  expect_bit_identical(inc.evaluate(), reference::evaluate_tree(tree, bench),
                       "incremental vs reference after buffer edits");
  session.commit();
}

TEST(Batch, SoaStaysConsistentUnderRandomizedIncrementalEdits) {
  for (const char* family : {"uniform", "high_fanout", "mixed_cap"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 11, 20);
    ClockTree tree = construction_tree(bench);

    Evaluator inc_owner(bench);
    IncrementalEvaluator inc(inc_owner);
    inc.bind(tree);
    (void)inc.evaluate();
    expect_soa_consistent(inc.netlist());

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

      // Split (insert_buffer_electrical), merge (remove_buffer) and
      // rewrite (snake / width) edits all hit the arena differently:
      // splits allocate, merges release, rewrites must land in place.
      const long kind = rng.uniform_int(0, 3);
      int edits = 0;
      switch (kind) {
        case 0: {
          const NodeId e = pick(edges);
          session.set_wire_width(e, tree.node(e).wire_width == 0 ? 1 : 0);
          ++edits;
          break;
        }
        case 1:
          session.add_snake(pick(edges), rng.uniform(5.0, 80.0));
          ++edits;
          break;
        case 2: {
          const NodeId e = pick(edges);
          session.insert_buffer_electrical(
              e, tree.edge_length(e) * rng.uniform(0.2, 0.8),
              CompositeBuffer{0, 2});
          ++edits;
          break;
        }
        default:
          if (buffers.size() > 3) {  // keep some stages around
            session.remove_buffer(pick(buffers));
            ++edits;
          }
          break;
      }
      if (edits > 0) session.commit();
      tree.validate();
      (void)inc.evaluate();  // refresh + re-simulate through the SoA slices
      expect_soa_consistent(inc.netlist());
    }
  }
}

// ------------------------------------------------------------- allocator ----

TEST(Batch, ArenaGrowsRewritesInPlaceAndRecycles) {
  Rng rng(0xA11);
  NetlistSoa soa;

  const Stage small = random_stage(rng, 3, 1);
  soa.write_slot(0, small);
  ASSERT_TRUE(soa.has_slot(0));
  expect_slice_matches_stage(soa, 0, small);
  EXPECT_EQ(soa.node_capacity(0), 4u);  // power-of-two floor
  const std::size_t off0 = soa.node_offset(0);

  // Same-bucket rewrite stays in place, bigger one reallocates.
  const Stage same_bucket = random_stage(rng, 4, 1);
  soa.write_slot(0, same_bucket);
  expect_slice_matches_stage(soa, 0, same_bucket);
  EXPECT_EQ(soa.node_offset(0), off0);
  EXPECT_EQ(soa.node_capacity(0), 4u);

  const Stage grown = random_stage(rng, 5, 1);
  soa.write_slot(0, grown);
  expect_slice_matches_stage(soa, 0, grown);
  EXPECT_EQ(soa.node_capacity(0), 8u);
  EXPECT_NE(soa.node_offset(0), off0);

  // The grown slot freed its capacity-4 slice; a new small slot takes it.
  const Stage other = random_stage(rng, 2, 1);
  soa.write_slot(7, other);
  expect_slice_matches_stage(soa, 7, other);
  EXPECT_EQ(soa.node_offset(7), off0);

  // Shrinking keeps the larger slice (capacity is sticky in place).
  const Stage shrunk = random_stage(rng, 2, 1);
  const std::size_t grown_off = soa.node_offset(0);
  soa.write_slot(0, shrunk);
  expect_slice_matches_stage(soa, 0, shrunk);
  EXPECT_EQ(soa.node_offset(0), grown_off);
  EXPECT_EQ(soa.node_capacity(0), 8u);

  soa.release_slot(0);
  EXPECT_FALSE(soa.has_slot(0));
  EXPECT_THROW(soa.view(0), std::logic_error);
  // Released capacity-8 slice comes back for the next size-5..8 write.
  const Stage reuse = random_stage(rng, 6, 1);
  soa.write_slot(3, reuse);
  expect_slice_matches_stage(soa, 3, reuse);
  EXPECT_EQ(soa.node_offset(3), grown_off);

  soa.clear();
  EXPECT_EQ(soa.slot_count(), 0u);
  EXPECT_EQ(soa.arena_nodes(), 0u);
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
