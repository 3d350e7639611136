#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analysis/evaluate.h"
#include "cts/flow.h"
#include "cts/slack.h"
#include "netlist/benchmark.h"
#include "rctree/clocktree.h"
#include "util/timer.h"

namespace contango {

/// \file pass.h
/// \brief First-class optimization passes of the Contango flow.
///
/// The paper's Fig. 1 methodology is a *sequence of independently gated
/// optimizations*; this header makes each of them a value: a Pass reads and
/// mutates a FlowContext, and a Pipeline (cts/pipeline.h) strings passes
/// together from a textual spec such as
/// `"dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn"`.  `run_contango()`
/// (cts/flow.h) is a thin wrapper over the default pipeline.
///
/// The paper's Improvement- & Violation-Checking (IVC) gate lives here as
/// pipeline infrastructure instead of being re-implemented per stage:
/// passes propose candidate trees through FlowContext::try_accept(), which
/// evaluates the candidate (one "SPICE run"), accepts it only when the
/// pass's objective improves without worsening violations, and rolls it
/// back otherwise.  The gate is the flow's one accept/reject policy: an
/// optimization pass changes the tree only through it, and the Pipeline
/// keeps whatever the accepted steps left.
///
/// Candidates come in two forms:
///   * *edit deltas* (TreeEditSession, rctree/extract.h) — the refinement
///     loops resize wires and buffers and add snakes in place through a
///     journaled session; the evaluation re-simulates only the dirty
///     stages (incremental engine, analysis/evaluate.h) and a rejected
///     candidate rolls the journal back.  Accept/rollback is O(dirty), not
///     O(tree), and a rollback is free: the session is a transaction over
///     the engine too, which hands back the incumbent's stage versions and
///     cached timings, so the next evaluation re-simulates nothing the
///     rejected candidate touched.  The wire passes' calibration probes
///     (probe()) are such sessions, always rolled back.
///   * whole-tree copies — structural rewrites (trunk sliding) copy the
///     tree; accepting one rebuilds the incremental engine's netlist.
/// Both paths produce bit-identical evaluations; FlowOptions::incremental
/// = false, a test-only reference switch, forces full evaluations.

/// What an optimization pass tries to improve; the IVC gate compares
/// candidates against the incumbent on this axis.  kNone marks construction
/// passes (DME, repair, insertion, polarity), which build the network
/// rather than refine it and are not IVC-gated.
enum class PassObjective { kNone, kSkew, kClr };

/// \brief The IVC gate's one tolerance (ps for slew, fF for capacitance,
/// ps for the constraint-violation vector).
///
/// A violated axis passes when the candidate is at most this much worse
/// than the incumbent, so an incumbent that already violates a limit may
/// see its worst slew, total cap or constraint violation rise by up to
/// kGateTolerance per accepted step — and by more across several accepted
/// steps, since each step compares against the last.  A clean candidate
/// passes regardless.
inline constexpr double kGateTolerance = 1e-6;

/// \brief Shared state of one flow execution, threaded through every pass.
///
/// Owns the evolving ClockTree, the Evaluator (the flow's simulation-run
/// budget), the options, and the FlowResult being accumulated (stage
/// snapshots, per-pass timings, construction reports).  Passes communicate
/// exclusively through this context — the selected composite buffer, the
/// unit slew budget and the current evaluation all live here, so any pass
/// ordering a pipeline spec can express is well-defined.
class FlowContext {
 public:
  FlowContext(const Benchmark& bench, const FlowOptions& options);

  const Benchmark& bench;
  const FlowOptions options;
  Evaluator eval;

  /// The evolving clock tree.  Construction passes replace or extend it
  /// directly; optimization passes go through try_accept().
  ClockTree tree;

  /// Latest accepted evaluation of `tree`; valid once has_current() (the
  /// INITIAL snapshot establishes it).
  const EvalResult& current() const { return current_; }
  bool has_current() const { return has_current_; }

  /// Accumulated result: stage snapshots, pass timings, obstacle/polarity
  /// reports, the selected composite.  The Pipeline finalizes it (tree,
  /// eval, totals) after the last pass.
  FlowResult result;

  /// Wall clock of the whole flow; StageSnapshot::seconds is read from it.
  const Timer& timer() const { return timer_; }

  /// The flow's repeater unit: the cheapest composite at least as strong as
  /// the strongest single library cell (cts/buflib.h).
  const CompositeBuffer& unit() const { return unit_; }

  /// Load the unit composite drives slew-cleanly under the insertion safety
  /// margin; the repair and TBSZ passes both budget against it.
  Ff unit_slew_cap() const { return unit_slew_cap_; }

  /// \brief Throws PipelineError when the tree is still empty, naming
  /// `who`.
  ///
  /// Every pass that consumes an existing tree (and the evaluation
  /// bootstrap) calls this, so a spec that skips the tree-building passes
  /// — e.g. CONTANGO_PIPELINE=twsz — fails with a clear message instead
  /// of crashing on the empty tree.
  void require_tree(const char* who) const;

  /// Evaluates the tree and records the "INITIAL" snapshot if no evaluation
  /// has been accepted yet.  The Pipeline calls this before the first
  /// optimization pass and again after the last pass, so construction-only
  /// pipelines still finish with a valid evaluation.
  /// \throws PipelineError when no pass has built a tree yet
  void ensure_initial();

  /// Records a StageSnapshot of the current evaluation under `name`
  /// (a Table III row) and logs it.
  void snapshot(const std::string& name);

  /// Returns `base` the first time it is requested, then "base#2",
  /// "base#3", ... — snapshot and timing names stay unique even when a
  /// pipeline repeats a pass.
  std::string unique_stage_name(const std::string& base);

  /// Violation half of the IVC check: a candidate passes when it is clean,
  /// or no worse than the incumbent (within kGateTolerance) on each
  /// violated axis (an already-violating network must still be allowed to
  /// improve).
  bool violation_ok(const EvalResult& candidate) const;

  /// Capacitance part of violation_ok(): reads only `total_cap` and
  /// `cap_violation`, which account_capacitance() fills from the tree
  /// alone, so try_accept() checks it before simulating.
  bool cap_ok(const EvalResult& candidate) const;

  /// \brief The central Improvement- & Violation-Checking gate
  /// (whole-tree-copy form).
  ///
  /// Evaluates `candidate` (one simulation run) and accepts it — moving it
  /// into `tree` and updating current() — only when `objective` strictly
  /// improves and violation_ok() holds.  Returns whether the candidate was
  /// accepted; a rejected candidate is discarded (SaveSolution semantics:
  /// the incumbent tree was never touched).  A candidate that fails
  /// cap_ok() is discarded before the evaluation, which is still booked as
  /// one full run.  Accepting rebinds the incremental engine (the tree was
  /// replaced wholesale).
  /// \pre objective is kSkew or kClr and has_current()
  bool try_accept(ClockTree&& candidate, PassObjective objective);

  /// \brief The same gate over an edit-delta candidate.
  ///
  /// `session` has already applied its edits to `tree` (and marked the
  /// touched stages dirty).  Evaluates the edited tree — incrementally
  /// when enabled, re-propagating only along dirty paths — and either
  /// commits the session (accept) or rolls it back (reject), leaving the
  /// incumbent tree bit-identical and the incremental engine exactly as
  /// before the session (stage versions and cached timings).  Rejects
  /// that are certain early cost less and decide the same: a candidate
  /// that fails cap_ok() is rolled back unsimulated, and the incremental
  /// sweep stops at the first level whose worst slew already fails the
  /// slew half of violation_ok().  Either still books one run.
  /// \pre objective is kSkew or kClr and has_current()
  bool try_accept(TreeEditSession& session, PassObjective objective);

  /// Decisions of both try_accept() overloads so far.
  const IvcCounts& ivc() const { return ivc_; }

  /// Begins an edit session on `tree`, wired to the incremental engine
  /// when enabled: it opens the engine's transaction, which try_accept()
  /// closes on either exit.  \pre has_current() (the engine binds at
  /// ensure_initial)
  TreeEditSession edit_session();

  /// \brief Evaluates `tree` with `edit` applied, then rolls the edit back.
  ///
  /// Opens an edit session, lets `edit` apply its edits through it, runs
  /// one evaluation (one simulation run, incremental when enabled) and
  /// rolls the session back, so `tree`, current() and the engine's state
  /// are as before.  The wire passes calibrate T_ws/T_wn with it
  /// (calibrate_tws, calibrate_twn, calibrate_bottom_twn).
  /// \pre has_current()
  EvalResult probe(const std::function<void(TreeEditSession&)>& edit);

  /// Replaces current() with `saved` without touching the tree; no
  /// simulation runs.  The tests' seam for putting a synthetic incumbent
  /// in front of the gate; no pass calls it.
  void restore_current(const EvalResult& saved) { current_ = saved; }

  /// \brief Tells the context `tree` was mutated outside its gates.
  ///
  /// Construction passes (and anything else that edits `tree` directly)
  /// leave the incremental engine stale; the Pipeline calls this after
  /// every non-gated pass so the next evaluation rebuilds from scratch.
  void note_tree_mutated();

  /// One round of an IVC-gated refinement loop: `round_fn(session, slacks,
  /// scale)` edits the tree in place through the session using the current
  /// edge slacks and returns the number of edits (0 = nothing left to do).
  /// Rounds that fail the gate roll back (O(dirty)) and retry with `scale`
  /// shrunk by 0.4; the loop ends after `max_rounds` rounds, five
  /// consecutive rejections, or an empty round.  Shared by the
  /// TWSZ/TWSN/BWSN passes.
  void refine(int max_rounds, PassObjective objective,
              const std::function<int(TreeEditSession&, const EdgeSlacks&,
                                      double)>& round_fn);

 private:
  /// Evaluates `tree` through the configured engine (one simulation run):
  /// the incremental evaluator when enabled (bound on first use), the full
  /// evaluator otherwise.  Bit-identical either way.  Only the incremental
  /// sweep honours `slew_cut` and takes `total_cap` (the tree's, when the
  /// caller has it; IncrementalEvaluator::evaluate).
  EvalResult evaluate_tree(
      Ps slew_cut = std::numeric_limits<Ps>::infinity(),
      std::optional<Ff> total_cap = std::nullopt);

  /// Ends an edit session: commit (`keep`) or rollback, of the tree
  /// journal and of the incremental engine's cache journal together.
  void close_session(TreeEditSession& session, bool keep);

  /// The gate's pre-simulation check: when a candidate of total
  /// capacitance `total_cap` fails cap_ok(), books the run it would have
  /// cost (full or incremental), counts the reject and returns true.
  bool rejected_on_cap(Ff total_cap, bool incremental);

  EvalResult current_;
  bool has_current_ = false;
  Timer timer_;
  CompositeBuffer unit_{0, 1};
  Ff unit_slew_cap_ = 0.0;
  std::map<std::string, int> stage_name_counts_;
  IncrementalEvaluator incremental_;
  bool use_incremental_ = true;
  IvcCounts ivc_;
};

/// \brief One composable stage of the flow.
///
/// Implementations are small adapters over the algorithm modules
/// (cts/dme.h, cts/wiresizing.h, ...).  Each owns its parameters at their
/// defaults; the pipeline spec's `pass:key=value` overrides are the only
/// way to change them (the table in docs/ARCHITECTURE.md lists every
/// parameter, default and range).  Passes propose changes through the
/// context.  make_pass() instantiates them by name.
class Pass {
 public:
  virtual ~Pass();

  /// Spec token, e.g. "twsz".
  virtual const char* name() const = 0;

  /// Snapshot/report name, e.g. "TWSZ" (the paper's Table III row labels).
  virtual const char* display_name() const = 0;

  /// kNone = construction pass; kSkew/kClr = optimization pass, which
  /// changes the tree only through the IVC gate and ends with a snapshot.
  virtual PassObjective objective() const { return PassObjective::kNone; }

  /// \brief Applies one `key=value` override from the pipeline spec.
  ///
  /// The default implementation rejects every key; overrides list theirs.
  /// \throws PipelineError (cts/pipeline.h) for unknown keys, unparsable
  ///         or non-finite values and values outside the parameter's
  ///         range, naming the pass and the parameter
  virtual void set_param(const std::string& key, const std::string& value);

  /// \brief Checks the parameters against what depends on the workload
  /// (e.g. `dme:wire_width` against the technology's wire count).
  ///
  /// The default accepts every benchmark.  Pipeline::check calls it before
  /// anything runs.
  /// \throws PipelineError naming the pass, the parameter and the benchmark
  virtual void check(const Benchmark& bench) const;

  virtual void run(FlowContext& ctx) = 0;
};

/// \brief Instantiates the stock pass named `name`, at its defaults.
///
/// The pass set is closed: dme, repair, insert, polarity, tbsz, twsz, twsn
/// and bwsn, one fixed table in cts/pass.cpp.
/// \throws PipelineError (cts/pipeline.h) for an unknown name, listing the
///         eight known passes in flow order
std::unique_ptr<Pass> make_pass(const std::string& name);

}  // namespace contango
