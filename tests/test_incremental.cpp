// Incremental-vs-full evaluation equivalence: the RcNetlist dirty-subtree
// engine plus the cached Elmore/transient propagation must be
// bit-identical to a from-scratch extract+evaluate on the same tree, for
// every edit kind the IVC loops use (wire resize, snake, buffer resize,
// polarity flip via make/unmake, buffer insert/remove) and after
// rollbacks.  Locked over every registered scenario family.  The level
// sweep's worker count (EvalOptions::threads) must not show in any result
// or counter.  The IVC gate's early rejects (a cap failure decided before
// the sweep, a slew failure at a level boundary) must cost less and change
// nothing else.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "cts/pass.h"
#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "evaluate_reference.h"
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
    EXPECT_GT(inc_owner.stage_reuses(), 0);
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
  ASSERT_FALSE(edges.empty());
  ASSERT_FALSE(buffers.empty());

  TreeEditSession session(tree, &inc.netlist());

  session.set_wire_width(edges[edges.size() / 2], 0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "wire resize");

  session.add_snake(edges[edges.size() / 3], 35.0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "snake");

  const CompositeBuffer old = tree.node(buffers.front()).buffer;
  session.set_buffer(buffers.front(),
                     CompositeBuffer{old.inverter_type, old.count + 2});
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree), "buffer resize");
  session.commit();

  // A structural change goes around the session and invalidates the
  // engine (as trunk sliding does); edits before the next refresh, even
  // below the new buffer, are covered by the pending rebuild.
  const NodeId e = edges.back();
  const NodeId inserted = tree.insert_buffer_electrical(
      e, tree.edge_length(e) / 3.0, CompositeBuffer{0, 4});
  inc.invalidate_all();
  TreeEditSession after_rewrite(tree, &inc.netlist());
  after_rewrite.set_buffer(inserted, CompositeBuffer{0, 6});
  after_rewrite.add_snake(e, 20.0);
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "edits while a rebuild is pending");
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

/// A rejected candidate leaves the engine as it found it: after the
/// rollback the netlist hands the touched stages back under their old
/// versions and the cache journal restores the overwritten timings, so the
/// next evaluation simulates nothing and still equals a full evaluation.
TEST(Incremental, RollbackIsFree) {
  const Benchmark bench = make_scenario("high_fanout", 4, 60);
  ClockTree tree = construction_tree(bench);

  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  const EvalResult incumbent = inc.evaluate();
  const std::vector<NodeId> edges = live_edges(tree);
  const std::vector<NodeId> buffers = buffers_with_one_child(tree);
  ASSERT_FALSE(buffers.empty());

  const auto candidate = [&](TreeEditSession& session) {
    session.set_wire_width(edges[1], 0);
    session.add_snake(edges[edges.size() / 2], 60.0);
    const CompositeBuffer old = tree.node(buffers.front()).buffer;
    session.set_buffer(buffers.front(),
                       CompositeBuffer{old.inverter_type, old.count + 3});
  };
  const auto expect_free_and_exact = [&](const char* what) {
    SCOPED_TRACE(what);
    const long before = inc_owner.batched_stage_evals();
    const EvalResult next = inc.evaluate();
    EXPECT_EQ(inc_owner.batched_stage_evals(), before);
    expect_bit_identical(next, full_eval.evaluate(tree), "next vs full");
    expect_bit_identical(next, incumbent, "next vs incumbent");
  };

  {  // evaluate -> edit -> evaluate -> rollback
    TreeEditSession session(tree, &inc.netlist());
    candidate(session);
    const long before = inc_owner.batched_stage_evals();
    EXPECT_NE(inc.evaluate().nominal_skew, incumbent.nominal_skew);
    EXPECT_GT(inc_owner.batched_stage_evals(), before);
    session.rollback();
    inc.rollback_session();
  }
  expect_free_and_exact("rollback after an evaluation");

  {  // edit -> rollback, never evaluated (a cap reject)
    TreeEditSession session(tree, &inc.netlist());
    candidate(session);
    session.rollback();
    inc.rollback_session();
  }
  expect_free_and_exact("rollback without an evaluation");

  {  // two evaluations in one session journal each entry once
    TreeEditSession session(tree, &inc.netlist());
    session.add_snake(edges[edges.size() / 3], 40.0);
    (void)inc.evaluate();
    candidate(session);
    (void)inc.evaluate();
    session.rollback();
    inc.rollback_session();
  }
  expect_free_and_exact("rollback after two evaluations");

  // Edits committed but not yet evaluated are refreshed when the next
  // session opens, so that session's rollback restores the committed
  // stage, not the one before the commit.
  const NodeId e = edges[edges.size() / 4];
  {
    TreeEditSession committed(tree, &inc.netlist());
    committed.add_snake(e, 30.0);
    committed.commit();
  }
  {
    TreeEditSession session(tree, &inc.netlist());
    session.add_snake(e, 30.0);
    (void)inc.evaluate();
    session.rollback();
    inc.rollback_session();
  }
  expect_bit_identical(inc.evaluate(), full_eval.evaluate(tree),
                       "rollback over a pending commit vs full");
}

/// Everything one randomized edit/rollback script observed: every
/// incremental evaluation in order (rollback probes included) plus the
/// engine's work counters at the end.
struct FuzzRun {
  std::vector<EvalResult> evals;
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
/// tree and the incremental result after every committed step.  The stage
/// graph must not move under value edits: after every committed step and
/// every rollback the netlist's slots and level order are those of bind().
FuzzRun run_edit_fuzz(
    const char* family, const EvalOptions& options,
    const std::function<void(const ClockTree&, const EvalResult&)>& after_step) {
  const Benchmark bench = make_scenario(family, 11, 20);
  ClockTree tree = construction_tree(bench);

  Evaluator inc_owner(bench, options);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  const RcNetlist& net = inc.netlist();
  const std::size_t bound_slots = net.slot_count();
  const std::vector<int> bound_topo = net.topo_slots();
  const std::vector<std::size_t> bound_levels = net.topo_levels();
  const auto expect_graph_unchanged = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(net.slot_count(), bound_slots);
    EXPECT_EQ(net.topo_slots(), bound_topo);
    EXPECT_EQ(net.topo_levels(), bound_levels);
  };
  FuzzRun run;
  const auto evaluate = [&] {
    run.evals.push_back(inc.evaluate());
    return run.evals.back();
  };
  EvalResult last = evaluate();
  for (std::size_t d = 0; d + 1 < bound_levels.size(); ++d) {
    run.widest_level =
        std::max(run.widest_level, bound_levels[d + 1] - bound_levels[d]);
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
      default: {
        // A rejected multi-edit candidate: edit, evaluate (on odd steps;
        // an even step is a cap reject, never simulated), roll back.  The
        // rollback is free: the incumbent's next evaluation simulates
        // nothing.
        session.set_wire_width(pick(edges), 0);
        session.add_snake(pick(edges), 25.0);
        if (step % 2 == 1) (void)evaluate();
        session.rollback();
        inc.rollback_session();
        const long sims = inc_owner.batched_stage_evals();
        expect_bit_identical(evaluate(), last, "post-rollback incumbent");
        EXPECT_EQ(inc_owner.batched_stage_evals(), sims)
            << "rollback was not free";
        expect_graph_unchanged("after rollback");
        break;
      }
    }
    if (edits > 0) session.commit();
    tree.validate();
    last = evaluate();
    expect_graph_unchanged("after step");
    after_step(tree, last);
  }
  EXPECT_EQ(inc_owner.sim_runs(),
            inc_owner.full_evals() + inc_owner.incremental_evals());
  run.stage_reuses = inc_owner.stage_reuses();
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
  // forced-full run never did, and the totals reconcile in both.  The
  // wire passes' calibration probes go through the engine too.
  for (const PassTiming& p : a.pass_timings) {
    if (p.name == "TWSZ" || p.name == "TWSN" || p.name == "BWSN") {
      EXPECT_EQ(p.full_evals, 0) << p.name;
      EXPECT_GT(p.incremental_evals, 0) << p.name;
    }
  }
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
    EXPECT_GT(serial.stage_reuses, 0);
    long pass_reuses = 0;
    for (const PassTiming& p : serial.pass_timings) pass_reuses += p.stage_reuses;
    EXPECT_EQ(pass_reuses, serial.stage_reuses);
    for (const int threads : {2, 3, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      const FlowResult r = flow(threads);
      expect_bit_identical(r.eval, serial.eval, "final evaluation");
      EXPECT_EQ(r.sim_runs, serial.sim_runs);
      EXPECT_EQ(r.full_evals, serial.full_evals);
      EXPECT_EQ(r.incremental_evals, serial.incremental_evals);
      EXPECT_EQ(r.batched_stage_evals, serial.batched_stage_evals);
      EXPECT_EQ(r.stage_reuses, serial.stage_reuses);
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
        EXPECT_EQ(p.stage_reuses, q.stage_reuses);
        EXPECT_EQ(p.ivc.rejected, q.ivc.rejected);
        EXPECT_EQ(p.ivc.rejected_slew, q.ivc.rejected_slew);
      }
    }
  }
}

void expect_same_ivc(const IvcCounts& a, const IvcCounts& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.rejected_cap, b.rejected_cap);
  EXPECT_EQ(a.rejected_slew, b.rejected_slew);
}

/// Every stock family at its registry size: per-pass stage-evals and IVC
/// decisions do not depend on the sweep's worker count, early rejects
/// included (a sweep stops only at a level boundary, after the whole
/// level is reduced).
TEST(EarlyReject, PassCountersAreThreadCountInvariantOnEveryStockFamily) {
  IvcCounts seen;
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    SCOPED_TRACE(family.name);
    const Benchmark bench = make_scenario(family.name, 1);
    const auto flow = [&](int threads) {
      FlowOptions options;
      options.eval.threads = threads;
      return run_contango(bench, options);
    };
    const FlowResult serial = flow(1);
    const FlowResult parallel = flow(4);
    EXPECT_EQ(parallel.sim_runs, serial.sim_runs);
    EXPECT_EQ(parallel.batched_stage_evals, serial.batched_stage_evals);
    expect_same_ivc(parallel.ivc, serial.ivc);
    ASSERT_EQ(parallel.pass_timings.size(), serial.pass_timings.size());
    IvcCounts sum;
    for (std::size_t i = 0; i < serial.pass_timings.size(); ++i) {
      const PassTiming& p = parallel.pass_timings[i];
      const PassTiming& q = serial.pass_timings[i];
      SCOPED_TRACE(q.name);
      EXPECT_EQ(p.batched_stage_evals, q.batched_stage_evals);
      expect_same_ivc(p.ivc, q.ivc);
      EXPECT_LE(q.ivc.rejected_cap + q.ivc.rejected_slew, q.ivc.rejected);
      sum.accepted += q.ivc.accepted;
      sum.rejected += q.ivc.rejected;
      sum.rejected_cap += q.ivc.rejected_cap;
      sum.rejected_slew += q.ivc.rejected_slew;
    }
    expect_same_ivc(sum, serial.ivc);
    EXPECT_EQ(serial.sim_runs, serial.full_evals + serial.incremental_evals);
    seen.rejected_cap += serial.ivc.rejected_cap;
    seen.rejected_slew += serial.ivc.rejected_slew;
  }
  // The stock families exercise both early exits.
  EXPECT_GT(seen.rejected_cap, 0);
  EXPECT_GT(seen.rejected_slew, 0);
}

/// The evaluation the flow's engine gives the incumbent tree next.  An
/// empty session is re-evaluated against a stand-in incumbent that any
/// candidate improves on, so the gate accepts it and current() exposes the
/// result; the stand-in keeps the real slew and cap, so the slew cut and
/// cap check are the real ones.
EvalResult next_evaluation(FlowContext& ctx) {
  EvalResult stand_in = ctx.current();
  stand_in.nominal_skew = std::numeric_limits<Ps>::infinity();
  ctx.restore_current(stand_in);
  TreeEditSession empty = ctx.edit_session();
  EXPECT_TRUE(ctx.try_accept(empty, PassObjective::kSkew));
  EXPECT_FALSE(ctx.current().stopped_early);
  return ctx.current();
}

/// A flow context holding `bench`'s construction tree and its evaluation.
struct GateFixture {
  Benchmark bench;
  FlowContext ctx;

  explicit GateFixture(Benchmark b) : bench(std::move(b)), ctx(bench, FlowOptions{}) {
    ctx.tree = construction_tree(bench);
    ctx.ensure_initial();
  }

  /// The first edge under the root: part of the root stage (level 0).
  NodeId top_edge() const { return ctx.tree.node(ctx.tree.root()).children.front(); }
};

TEST(EarlyReject, CapFailureIsDecidedWithoutSimulating) {
  Benchmark bench = make_scenario("clustered", 7, 24);
  bench.tech.cap_limit = 1.0;  // the incumbent violates cap already
  GateFixture f(std::move(bench));
  FlowContext& ctx = f.ctx;
  ASSERT_TRUE(ctx.current().cap_violation);

  const std::vector<NodeId> edges = live_edges(ctx.tree);
  // A candidate that only adds capacitance.
  {
    const int runs = ctx.eval.sim_runs();
    const int incremental = ctx.eval.incremental_evals();
    const long stage_evals = ctx.eval.batched_stage_evals();
    const IvcCounts before = ctx.ivc();

    TreeEditSession session = ctx.edit_session();
    session.add_snake(edges[edges.size() / 3], 400.0);
    session.set_wire_width(edges[edges.size() / 4], 1);
    EXPECT_FALSE(ctx.try_accept(session, PassObjective::kSkew));

    EXPECT_EQ(ctx.eval.sim_runs(), runs + 1);
    EXPECT_EQ(ctx.eval.incremental_evals(), incremental + 1);
    EXPECT_EQ(ctx.eval.batched_stage_evals(), stage_evals);
    const IvcCounts d = ctx.ivc() - before;
    EXPECT_EQ(d.rejected, 1);
    EXPECT_EQ(d.rejected_cap, 1);
    EXPECT_EQ(d.accepted, 0);

    expect_bit_identical(next_evaluation(ctx),
                         reference::evaluate_tree(ctx.tree, f.bench),
                         "next evaluation vs reference");
  }

  // The whole-tree form drops the candidate and books one full run.
  const int full = ctx.eval.full_evals();
  const long stage_evals = ctx.eval.batched_stage_evals();
  ClockTree candidate = ctx.tree;
  candidate.node(edges.back()).snake += 500.0;
  EXPECT_FALSE(ctx.try_accept(std::move(candidate), PassObjective::kClr));
  EXPECT_EQ(ctx.eval.full_evals(), full + 1);
  EXPECT_EQ(ctx.eval.batched_stage_evals(), stage_evals);
  EXPECT_EQ(ctx.ivc().rejected_cap, 2);
}

TEST(EarlyReject, SlewFailureStopsBeforeTheLastLevel) {
  Benchmark bench = make_scenario("uniform", 3, 160);
  bench.tech.cap_limit = 0.0;  // no cap limit: only slew can decide
  GateFixture f(std::move(bench));
  FlowContext& ctx = f.ctx;
  ASSERT_GT(ctx.eval.incremental_evals(), 0);

  // Snake a wire of the root stage far past what its driver can take: the
  // worst slew passes the cut at level 0.
  const EvalResult incumbent = ctx.current();
  const long stage_evals = ctx.eval.batched_stage_evals();
  const int runs = ctx.eval.sim_runs();
  const IvcCounts before = ctx.ivc();

  TreeEditSession session = ctx.edit_session();
  session.add_snake(f.top_edge(), 20000.0);
  // Precondition: the whole sweep would fail the slew check.
  const EvalResult full = Evaluator(f.bench).evaluate(ctx.tree);
  ASSERT_GT(full.worst_slew,
            std::max(f.bench.tech.slew_limit, incumbent.worst_slew + 1e-6));
  ASSERT_FALSE(ctx.violation_ok(full));
  EXPECT_FALSE(ctx.try_accept(session, PassObjective::kSkew));

  const IvcCounts d = ctx.ivc() - before;
  EXPECT_EQ(d.rejected, 1);
  EXPECT_EQ(d.rejected_slew, 1);
  EXPECT_EQ(d.rejected_cap, 0);
  EXPECT_EQ(ctx.eval.sim_runs(), runs + 1);
  // Only the dirty root stage ran: far less than one stage per level.
  const long spent = ctx.eval.batched_stage_evals() - stage_evals;
  const long combos =
      static_cast<long>(f.bench.tech.corners.size()) * kNumTransitions;
  EXPECT_GT(spent, 0);
  EXPECT_LE(spent, 2 * combos);

  expect_bit_identical(next_evaluation(ctx),
                       reference::evaluate_tree(ctx.tree, f.bench),
                       "next evaluation vs reference");
}

/// The same stop, on the engine itself: the partial result says so, and
/// the caches stay exact for the evaluation after the rollback.
TEST(EarlyReject, PartialSweepKeepsTheCacheExact) {
  const Benchmark bench = make_scenario("high_fanout", 5, 120);
  ClockTree tree = construction_tree(bench);
  Evaluator owner(bench);
  IncrementalEvaluator inc(owner);
  inc.bind(tree);
  const EvalResult incumbent = inc.evaluate();
  ASSERT_GT(inc.netlist().topo_levels().size(), 3u);  // >= 2 levels
  const Ps cut = std::max(bench.tech.slew_limit, incumbent.worst_slew + 1e-6);

  TreeEditSession session(tree, &inc.netlist());
  session.add_snake(tree.node(tree.root()).children.front(), 20000.0);
  const long sims = owner.batched_stage_evals();
  const EvalResult partial = inc.evaluate(cut);
  EXPECT_TRUE(partial.stopped_early);
  EXPECT_GT(partial.worst_slew, cut);
  EXPECT_FALSE(partial.all_sinks_reached);
  EXPECT_GT(owner.batched_stage_evals(), sims);

  session.rollback();
  expect_bit_identical(inc.evaluate(cut), reference::evaluate_tree(tree, bench),
                       "after rollback vs reference");
  expect_bit_identical(inc.evaluate(), incumbent, "after rollback vs incumbent");
}

/// Ungated sweeps take no cut: a full evaluation and every Monte-Carlo
/// trial of a tree far over the slew limit still reach every sink.
TEST(EarlyReject, FullAndMonteCarloSweepsNeverStopEarly) {
  Benchmark bench = make_scenario("ring", 2, 40);
  const ClockTree tree = construction_tree(bench);
  bench.tech.slew_limit = 1.0;
  Evaluator eval(bench);
  const EvalResult full = eval.evaluate(tree);
  ASSERT_TRUE(full.slew_violation);
  EXPECT_FALSE(full.stopped_early);
  EXPECT_TRUE(full.all_sinks_reached);
  expect_bit_identical(full, reference::evaluate_tree(tree, bench), "full vs reference");

  McOptions options;
  options.trials = 6;
  options.threads = 2;
  const McReport mc = run_montecarlo(bench, tree, VariationModel{}, options);
  EXPECT_FALSE(mc.nominal.stopped_early);
  for (const McTrial& t : mc.samples) {  // the zero model replays nominal
    EXPECT_EQ(t.skew, full.nominal_skew);
    EXPECT_EQ(t.max_latency, full.max_latency);
    EXPECT_EQ(t.worst_slew, full.worst_slew);
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

/// FlowContext::probe evaluates an edit and undoes it: the tree,
/// current() and what the next evaluation costs are as before, and the
/// probe itself is one incremental run.
TEST(Incremental, ProbeLeavesTheFlowAsItFoundIt) {
  const Benchmark bench = make_scenario("ring", 2, 60);
  FlowContext ctx(bench, FlowOptions{});
  ctx.tree = construction_tree(bench);
  ctx.ensure_initial();
  const ClockTree tree_before = ctx.tree;
  const EvalResult current_before = ctx.current();
  const std::vector<NodeId> edges = live_edges(ctx.tree);

  const int full = ctx.eval.full_evals();
  const int incremental = ctx.eval.incremental_evals();
  const EvalResult probed = ctx.probe([&](TreeEditSession& session) {
    session.set_wire_width(edges[2], 0);
    session.add_snake(edges[edges.size() / 2], 80.0);
  });
  EXPECT_EQ(ctx.eval.full_evals(), full);
  EXPECT_EQ(ctx.eval.incremental_evals(), incremental + 1);

  // The probe saw the edited tree ...
  ClockTree edited = tree_before;
  edited.node(edges[2]).wire_width = 0;
  edited.node(edges[edges.size() / 2]).snake += 80.0;
  expect_bit_identical(probed, reference::evaluate_tree(edited, bench),
                       "probe vs reference");
  // ... and left the incumbent untouched.
  ASSERT_EQ(ctx.tree.size(), tree_before.size());
  for (NodeId id = 0; id < static_cast<NodeId>(ctx.tree.size()); ++id) {
    EXPECT_EQ(ctx.tree.node(id).wire_width, tree_before.node(id).wire_width);
    EXPECT_EQ(ctx.tree.node(id).snake, tree_before.node(id).snake);
    EXPECT_EQ(ctx.tree.node(id).buffer.count, tree_before.node(id).buffer.count);
  }
  expect_bit_identical(ctx.current(), current_before, "current() after probe");
  const long before = ctx.eval.batched_stage_evals();
  expect_bit_identical(next_evaluation(ctx), current_before,
                       "next evaluation after probe");
  EXPECT_EQ(ctx.eval.batched_stage_evals(), before);
}

/// The stage-boundary slew grid (quantize_stage_slew): an edit that moves
/// the slews a stage hands its children by less than the grid absorbs
/// re-simulates that stage alone.  Every stage below replays its cache,
/// and the result still equals a fresh full evaluation bit for bit.
TEST(Incremental, SubGridSlewChangeReplaysEveryStageBelow) {
  const Benchmark bench = make_scenario("ring", 3, 24);
  ClockTree tree = construction_tree(bench);
  Evaluator full_eval(bench);
  Evaluator inc_owner(bench);
  IncrementalEvaluator inc(inc_owner);
  inc.bind(tree);
  (void)inc.evaluate();  // warm the caches

  // The slews the root stage hands its children, every corner and
  // transition.  Its input event is the clock source's, so the kernel can
  // be run on it here directly.
  const auto root_child_slews = [&] {
    const EvalOptions& options = full_eval.options();
    const StagedNetlist net = extract_stages(tree, bench, options.extract);
    const Stage& root = net.stages.front();
    TransientScratch scratch;
    std::vector<TapTiming> taps(root.taps.size());
    std::vector<Ps> slews;
    for (const Volt vdd : bench.tech.corners) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const auto in_dir = static_cast<Transition>(t);
        const Transition out_dir =
            !root.driver_inverts ? in_dir
            : in_dir == Transition::kRise ? Transition::kFall
                                          : Transition::kRise;
        const BatchDrive drive{
            effective_driver_res(root.driver_res_nom, bench.tech, vdd, out_dir),
            effective_intrinsic(root.driver_intrinsic_nom, bench.tech, vdd),
            options.source_input_slew};
        full_eval.simulator().simulate_stage_batch(root, &drive, 1, taps.data(),
                                                   scratch);
        for (std::size_t k = 0; k < root.taps.size(); ++k) {
          if (!root.taps[k].is_sink) slews.push_back(taps[k].slew);
        }
      }
    }
    return slews;
  };

  const std::vector<Ps> before = root_child_slews();
  ASSERT_FALSE(before.empty()) << "the root stage drives no buffer";
  TreeEditSession session(tree, &inc.netlist());
  session.add_snake(live_edges(tree).front(), 1e-9);  // a root-stage wire
  const std::vector<Ps> after = root_child_slews();
  // The edit moves the children's raw input slews, so an exact-slew cache
  // key would re-simulate them, but not across a grid point.
  ASSERT_NE(after, before);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(quantize_stage_slew(after[i]), quantize_stage_slew(before[i])) << i;
  }

  const EvalWork start = inc_owner.work();
  const EvalResult edited = inc.evaluate();
  const EvalWork spent = inc_owner.work() - start;
  const long combos = static_cast<long>(bench.tech.corners.size()) * kNumTransitions;
  const long stages = static_cast<long>(inc.netlist().topo_slots().size());
  EXPECT_EQ(spent.batched_stage_evals, combos);  // the root stage alone
  EXPECT_EQ(spent.stage_reuses, (stages - 1) * combos);
  expect_bit_identical(edited, full_eval.evaluate(tree), "sub-grid edit vs full");
  session.commit();
}

}  // namespace
}  // namespace contango
