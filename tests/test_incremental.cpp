// Incremental-vs-full evaluation equivalence: the RcNetlist dirty-subtree
// engine plus the cached Elmore/transient propagation must be
// bit-identical to a from-scratch extract+evaluate on the same tree, for
// every edit kind the IVC loops use (wire resize, snake, buffer resize,
// polarity flip via make/unmake, buffer insert/remove) and after
// rollbacks.  Locked over every registered scenario family.  The level
// sweep's worker count (EvalOptions::threads) must not show in any result
// or counter.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "rctree/extract.h"
#include "util/rng.h"

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

std::vector<NodeId> live_edges(const ClockTree& tree) {
  std::vector<NodeId> edges;
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root()) edges.push_back(id);
  }
  return edges;
}

std::vector<NodeId> buffers_with_one_child(const ClockTree& tree) {
  std::vector<NodeId> out;
  for (NodeId id : tree.topological_order()) {
    if (tree.node(id).is_buffer() && tree.node(id).children.size() == 1) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<NodeId> internal_nodes(const ClockTree& tree) {
  std::vector<NodeId> out;
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root() && tree.node(id).kind == NodeKind::kInternal) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(Incremental, MatchesFullOnEveryScenarioFamily) {
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 1, 24);
    const ClockTree tree = construction_tree(bench);

    Evaluator full_eval(bench);
    Evaluator inc_owner(bench);
    IncrementalEvaluator inc(inc_owner);
    inc.bind(tree);

    expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                         "cold incremental vs full");
    // A second evaluation with nothing dirty is pure cache replay.
    expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                         "warm incremental vs full");
    EXPECT_GT(inc.stage_reuses(), 0);
    EXPECT_EQ(inc_owner.incremental_evals(), 2);
    EXPECT_EQ(full_eval.full_evals(), 2);
  }
}

TEST(Incremental, EveryEditKindStaysBitIdentical) {
  const Benchmark bench = make_scenario("ring", 3, 24);
  ClockTree tree = construction_tree(bench);

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  (void)inc.evaluate();  // warm the caches

  const std::vector<NodeId> edges = live_edges(tree);
  const std::vector<NodeId> buffers = buffers_with_one_child(tree);
  const std::vector<NodeId> internals = internal_nodes(tree);
  ASSERT_FALSE(edges.empty());
  ASSERT_FALSE(buffers.empty());
  ASSERT_FALSE(internals.empty());

  TreeEditSession session(tree, &inc.netlist());

  session.set_wire_width(edges[edges.size() / 2], 0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "wire resize");

  session.add_snake(edges[edges.size() / 3], 35.0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "snake");

  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 2});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "buffer resize");

  session.make_buffer(internals.front(), CompositeBuffer{0, 2});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "polarity flip (make_buffer)");

  const NodeId inserted =
      session.insert_buffer_electrical(edges.back(),
                                       tree.edge_length(edges.back()) / 3.0,
                                       CompositeBuffer{0, 4});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "insert buffer");
  EXPECT_TRUE(tree.node(inserted).is_buffer());

  session.unmake_buffer(inserted);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "polarity flip back (unmake_buffer)");

  // remove_buffer makes the session irreversible but must stay exact.
  session.remove_buffer(buffers.back());
  EXPECT_FALSE(session.can_rollback());
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "remove buffer");
  EXPECT_THROW(session.rollback(), std::logic_error);
  session.commit();
  tree.validate();
}

TEST(Incremental, RollbackRestoresTheIncumbentExactly) {
  const Benchmark bench = make_scenario("clustered", 7, 24);
  ClockTree tree = construction_tree(bench);

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  const EvalResult incumbent = inc.evaluate();

  const std::vector<NodeId> edges = live_edges(tree);
  const std::vector<NodeId> buffers = buffers_with_one_child(tree);
  ASSERT_FALSE(buffers.empty());

  // A candidate out of exactly the edit kinds the refine loops use: its
  // rollback must restore the tree — and therefore the evaluation — bit
  // for bit (SaveSolution semantics without the tree copy).
  TreeEditSession session(tree, &inc.netlist());
  session.set_wire_width(edges[1], 0);
  session.add_snake(edges[edges.size() / 2], 60.0);
  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 3});
  EXPECT_EQ(session.edit_count(), 3);
  const EvalResult candidate = inc.evaluate();
  EXPECT_NE(candidate.nominal_skew, incumbent.nominal_skew);

  session.rollback();
  EXPECT_EQ(session.edit_count(), 0);
  // Dirty sets after rollback: the touched stages re-simulate from the
  // restored contents and land exactly on the incumbent numbers.
  expect_bit_identical(inc.evaluate(), incumbent, "rollback vs incumbent");
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "rollback vs full");
}

/// Everything one randomized edit/rollback script observed: every
/// incremental evaluation in order (rollback probes included) plus the
/// engine's work counters at the end.
struct FuzzRun {
  std::vector<EvalResult> evals;
  long stage_sims = 0;
  long stage_reuses = 0;
  long batched_stage_evals = 0;
  int sim_runs = 0;
  std::size_t widest_level = 0;  ///< most stages in one depth level, at start
};

/// Replays a seeded script of random edits, commits and rejected
/// (rolled-back) candidates on `family`'s construction tree through an
/// incremental engine configured by `options`.  The script depends only on
/// the seed and the tree, never on evaluation results, so runs with
/// different execution modes see the same edits.  `after_step` sees the
/// tree and the incremental result after every committed step.
FuzzRun run_edit_fuzz(
    const char* family, const EvalOptions& options,
    const std::function<void(const ClockTree&, const EvalResult&)>& after_step) {
  const Benchmark bench = make_scenario(family, 11, 20);
  ClockTree tree = construction_tree(bench);

  Evaluator inc_owner(bench, options);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  FuzzRun run;
  const auto evaluate = [&] {
    run.evals.push_back(inc.evaluate());
    return run.evals.back();
  };
  EvalResult last = evaluate();
  const std::vector<std::size_t>& levels = inc.netlist().topo_levels();
  for (std::size_t d = 0; d + 1 < levels.size(); ++d) {
    run.widest_level = std::max(run.widest_level, levels[d + 1] - levels[d]);
  }

  Rng rng(0xC0FFEE ^ std::hash<std::string>{}(family));
  for (int step = 0; step < 24; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    TreeEditSession session(tree, &inc.netlist());
    const std::vector<NodeId> edges = live_edges(tree);
    const std::vector<NodeId> buffers = buffers_with_one_child(tree);
    const auto pick = [&](const std::vector<NodeId>& v) {
      return v[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
    };

    const long kind = rng.uniform_int(0, 5);
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
      case 2:
        if (!buffers.empty()) {
          const NodeId b = pick(buffers);
          const CompositeBuffer old = tree.node(b).buffer;
          const int delta = rng.uniform_int(0, 1) ? 1 : -1;
          session.set_buffer(
              b, CompositeBuffer{old.inverter_type,
                                 std::max(1, old.count + 2 * delta)});
          ++edits;
        }
        break;
      case 3: {
        const NodeId e = pick(edges);
        session.insert_buffer_electrical(
            e, tree.edge_length(e) * rng.uniform(0.2, 0.8),
            CompositeBuffer{0, 2});
        ++edits;
        break;
      }
      case 4:
        if (buffers.size() > 3) {  // keep some stages around
          session.remove_buffer(pick(buffers));
          ++edits;
        }
        break;
      default: {
        // A rejected multi-edit candidate: edit, evaluate, roll back.
        session.set_wire_width(pick(edges), 0);
        session.add_snake(pick(edges), 25.0);
        (void)evaluate();
        session.rollback();
        expect_bit_identical(evaluate(), last, "post-rollback incumbent");
        break;
      }
    }
    if (edits > 0) session.commit();
    tree.validate();
    last = evaluate();
    after_step(tree, last);
  }
  EXPECT_EQ(inc_owner.sim_runs(),
            inc_owner.full_evals() + inc_owner.incremental_evals());
  run.stage_sims = inc.stage_sims();
  run.stage_reuses = inc.stage_reuses();
  run.batched_stage_evals = inc_owner.batched_stage_evals();
  run.sim_runs = inc_owner.sim_runs();
  return run;
}

TEST(Incremental, RandomizedEditFuzzOverFamilies) {
  for (const char* family : {"uniform", "high_fanout", "obstacle_dense"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 11, 20);
    Evaluator full_eval(bench);
    const FuzzRun run =
        run_edit_fuzz(family, EvalOptions{},
                      [&](const ClockTree& tree, const EvalResult& inc) {
                        expect_bit_identical(inc, full_eval.evaluate(tree),
                                             "incremental vs full");
                      });
    EXPECT_GT(run.stage_reuses, 0);
  }
}

/// The level sweep's worker count must not show in any output: every
/// evaluation and every work counter equals the single-threaded run's.
TEST(Incremental, EditFuzzIsThreadCountInvariant) {
  for (const char* family : {"uniform", "high_fanout", "obstacle_dense"}) {
    SCOPED_TRACE(family);
    const auto fuzz = [&](int threads) {
      EvalOptions options;
      options.threads = threads;
      return run_edit_fuzz(family, options,
                           [](const ClockTree&, const EvalResult&) {});
    };
    const FuzzRun serial = fuzz(1);
    EXPECT_GT(serial.widest_level, 1u);  // the sweep has work to split
    EXPECT_GT(serial.batched_stage_evals, 0);
    for (const int threads : {2, 3, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const FuzzRun run = fuzz(threads);
      ASSERT_EQ(run.evals.size(), serial.evals.size());
      for (std::size_t i = 0; i < run.evals.size(); ++i) {
        expect_bit_identical(run.evals[i], serial.evals[i],
                             "evaluation " + std::to_string(i));
      }
      EXPECT_EQ(run.stage_sims, serial.stage_sims);
      EXPECT_EQ(run.stage_reuses, serial.stage_reuses);
      EXPECT_EQ(run.batched_stage_evals, serial.batched_stage_evals);
      EXPECT_EQ(run.sim_runs, serial.sim_runs);
    }
  }
}

TEST(Incremental, FlowIsBitIdenticalWithTheEngineOnOrOff) {
  const Benchmark bench = make_scenario("mixed_cap", 5, 32);

  FlowOptions on;
  on.incremental = true;
  FlowOptions off;
  off.incremental = false;

  const FlowResult a = run_contango(bench, on);
  const FlowResult b = run_contango(bench, off);

  // The engines must agree on every gating decision, so the whole flow —
  // final metrics, per-stage snapshots, simulation budget — is identical.
  expect_bit_identical(a.eval, b.eval, "final evaluation");
  EXPECT_EQ(a.sim_runs, b.sim_runs);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].name, b.stages[i].name);
    EXPECT_EQ(a.stages[i].skew, b.stages[i].skew);
    EXPECT_EQ(a.stages[i].clr, b.stages[i].clr);
    EXPECT_EQ(a.stages[i].cap, b.stages[i].cap);
    EXPECT_EQ(a.stages[i].sim_runs, b.stages[i].sim_runs);
  }

  // Counter split: the incremental run actually used the engine, the
  // forced-full run never did, and the totals reconcile in both.
  EXPECT_GT(a.incremental_evals, 0);
  EXPECT_EQ(a.sim_runs, a.full_evals + a.incremental_evals);
  EXPECT_EQ(b.incremental_evals, 0);
  EXPECT_EQ(b.sim_runs, b.full_evals);
}

/// Whole flows over the stock obstacle and windowed-constraint families:
/// every gating decision, pass and counter must be the same at any level
/// sweep worker count.
TEST(Incremental, FlowIsThreadCountInvariantOnStockFamilies) {
  for (const char* family : {"obstacle_dense", "usefulskew"}) {
    SCOPED_TRACE(family);
    const Benchmark bench = make_scenario(family, 1);
    const auto flow = [&](int threads) {
      FlowOptions options;
      options.eval.threads = threads;
      return run_contango(bench, options);
    };
    const FlowResult serial = flow(1);
    EXPECT_GT(serial.incremental_evals, 0);
    EXPECT_EQ(serial.helper_cpu_seconds, 0.0);
    for (const int threads : {2, 3, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const FlowResult r = flow(threads);
      expect_bit_identical(r.eval, serial.eval, "final evaluation");
      EXPECT_EQ(r.sim_runs, serial.sim_runs);
      EXPECT_EQ(r.full_evals, serial.full_evals);
      EXPECT_EQ(r.incremental_evals, serial.incremental_evals);
      EXPECT_EQ(r.batched_stage_evals, serial.batched_stage_evals);
      ASSERT_EQ(r.stages.size(), serial.stages.size());
      for (std::size_t i = 0; i < r.stages.size(); ++i) {
        EXPECT_EQ(r.stages[i].name, serial.stages[i].name);
        EXPECT_EQ(r.stages[i].skew, serial.stages[i].skew);
        EXPECT_EQ(r.stages[i].clr, serial.stages[i].clr);
        EXPECT_EQ(r.stages[i].max_latency, serial.stages[i].max_latency);
        EXPECT_EQ(r.stages[i].cap, serial.stages[i].cap);
        EXPECT_EQ(r.stages[i].sim_runs, serial.stages[i].sim_runs);
      }
      ASSERT_EQ(r.pass_timings.size(), serial.pass_timings.size());
      for (std::size_t i = 0; i < r.pass_timings.size(); ++i) {
        const PassTiming& p = r.pass_timings[i];
        const PassTiming& q = serial.pass_timings[i];
        EXPECT_EQ(p.name, q.name);
        EXPECT_EQ(p.sim_runs, q.sim_runs);
        EXPECT_EQ(p.full_evals, q.full_evals);
        EXPECT_EQ(p.incremental_evals, q.incremental_evals);
        EXPECT_EQ(p.batched_stage_evals, q.batched_stage_evals);
      }
    }
  }
}

/// CPU spent on level-sweep helpers is accounted: none exists at one
/// thread, some at four on a tree whose levels hold several stages, and
/// the passes' cpu_seconds include it.
TEST(Incremental, HelperCpuIsCountedIntoPassCpu) {
  const Benchmark bench = make_scenario("uniform", 3, 160);
  const auto flow = [&](int threads) {
    FlowOptions options;
    options.eval.threads = threads;
    return run_contango(bench, options);
  };
  const FlowResult serial = flow(1);
  EXPECT_EQ(serial.helper_cpu_seconds, 0.0);

  const FlowResult parallel = flow(4);
  EXPECT_GT(parallel.helper_cpu_seconds, 0.0);
  double pass_cpu = 0.0;
  for (const PassTiming& p : parallel.pass_timings) pass_cpu += p.cpu_seconds;
  EXPECT_GE(pass_cpu, parallel.helper_cpu_seconds);
}

}  // namespace
}  // namespace contango
