#include "cts/pass.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cts/bottomlevel.h"
#include "cts/buflib.h"
#include "cts/bufferopt.h"
#include "cts/dme.h"
#include "cts/obstacles.h"
#include "cts/pipeline.h"
#include "cts/rebalance.h"
#include "cts/vanginneken.h"
#include "cts/wiresizing.h"
#include "cts/wiresnaking.h"
#include "util/log.h"

namespace contango {

// ------------------------------------------------------------- FlowContext --

FlowContext::FlowContext(const Benchmark& bench_in, const FlowOptions& options_in)
    : bench(bench_in),
      options(options_in),
      eval(bench_in, options_in.eval),
      unit_(best_unit_composite(bench_in.tech)),
      unit_slew_cap_(
          slew_free_cap(bench_in.tech, unit_, options_in.insertion.slew_margin)),
      incremental_(eval),
      use_incremental_(options_in.incremental) {}

EvalResult FlowContext::evaluate_tree(Ps slew_cut, std::optional<Ff> total_cap) {
  if (!use_incremental_) return eval.evaluate(tree);
  // `tree` is a member object, so its address is stable across the moves
  // the construction passes and try_accept perform on its *contents*;
  // wholesale content replacements invalidate through note_tree_mutated()/
  // restore_saved().
  if (incremental_.bound_tree() != &tree) incremental_.bind(tree);
  return incremental_.evaluate(slew_cut, total_cap);
}

TreeEditSession FlowContext::edit_session() {
  if (!use_incremental_) return TreeEditSession(tree);
  if (incremental_.bound_tree() != &tree) incremental_.bind(tree);
  // Opens the netlist transaction; the engine journals its cache under it.
  return TreeEditSession(tree, &incremental_.netlist());
}

void FlowContext::close_session(TreeEditSession& session, bool keep) {
  if (keep) {
    session.commit();
    incremental_.commit_session();
  } else {
    session.rollback();
    incremental_.rollback_session();
  }
}

EvalResult FlowContext::probe(const std::function<void(TreeEditSession&)>& edit) {
  TreeEditSession session = edit_session();
  edit(session);
  const EvalResult probed = evaluate_tree();
  close_session(session, /*keep=*/false);
  return probed;
}

void FlowContext::note_tree_mutated() {
  if (incremental_.bound()) incremental_.invalidate_all();
}

void FlowContext::restore_saved(ClockTree&& saved_tree,
                                const EvalResult& saved_eval) {
  tree = std::move(saved_tree);
  current_ = saved_eval;
  note_tree_mutated();
}

void FlowContext::require_tree(const char* who) const {
  if (tree.size() > 0) return;
  throw PipelineError(std::string(who) +
                      " needs a clock tree, but no tree-building pass ran "
                      "before it — start the pipeline spec with e.g. "
                      "'dme,repair,insert,polarity'");
}

void FlowContext::ensure_initial() {
  if (has_current_) return;
  require_tree("clock-network evaluation");
  current_ = evaluate_tree();
  has_current_ = true;
  snapshot(unique_stage_name("INITIAL"));
}

void FlowContext::snapshot(const std::string& name) {
  result.stages.push_back(StageSnapshot{name, current_.nominal_skew,
                                        current_.clr, current_.max_latency,
                                        current_.total_cap, eval.sim_runs(),
                                        timer_.seconds()});
  Log::info("contango[%s] %s: skew %.3f ps, CLR %.3f ps, cap %.1f fF, %d sims",
            bench.name.c_str(), name.c_str(), current_.nominal_skew,
            current_.clr, current_.total_cap, eval.sim_runs());
}

std::string FlowContext::unique_stage_name(const std::string& base) {
  const int count = ++stage_name_counts_[base];
  if (count == 1) return base;
  return base + "#" + std::to_string(count);
}

bool FlowContext::cap_ok(const EvalResult& candidate) const {
  return !candidate.cap_violation ||
         candidate.total_cap <= current_.total_cap + 1e-6;
}

bool FlowContext::violation_ok(const EvalResult& candidate) const {
  const bool slew_ok = !candidate.slew_violation ||
                       candidate.worst_slew <= current_.worst_slew + 1e-6;
  // Generalized violation vector: under a non-trivial constraint block a
  // candidate must keep every sink window and inter-domain bound no worse
  // than the incumbent's.  Identically 0 <= 0 for trivial blocks, so the
  // legacy gate is unchanged.
  const bool constraints_ok =
      candidate.constraints_met() ||
      candidate.constraint_violation() <= current_.constraint_violation() + 1e-6;
  return slew_ok && cap_ok(candidate) && constraints_ok;
}

bool FlowContext::rejected_on_cap(Ff total_cap, bool incremental) {
  EvalResult cap_only;
  account_capacitance(cap_only, total_cap, bench.tech);
  if (cap_ok(cap_only)) return false;
  eval.book_run(incremental);
  ++ivc_.rejected;
  ++ivc_.rejected_cap;
  return true;
}

namespace {

bool improves(const EvalResult& candidate, const EvalResult& incumbent,
              PassObjective objective) {
  return objective == PassObjective::kClr
             ? candidate.clr < incumbent.clr
             : candidate.nominal_skew < incumbent.nominal_skew;
}

}  // namespace

bool FlowContext::try_accept(ClockTree&& candidate, PassObjective objective) {
  if (rejected_on_cap(candidate.total_cap(bench.tech, eval.sink_caps()),
                      /*incremental=*/false)) {
    return false;
  }
  const EvalResult r = eval.evaluate(candidate);
  if (improves(r, current_, objective) && violation_ok(r)) {
    tree = std::move(candidate);
    current_ = r;
    note_tree_mutated();  // wholesale replacement: rebuild, don't diff
    ++ivc_.accepted;
    return true;
  }
  ++ivc_.rejected;
  return false;
}

bool FlowContext::try_accept(TreeEditSession& session, PassObjective objective) {
  // Computed once: the cap check and the evaluation both need it.
  const Ff total_cap = tree.total_cap(bench.tech, eval.sink_caps());
  if (rejected_on_cap(total_cap, use_incremental_)) {
    close_session(session, /*keep=*/false);
    return false;
  }
  // Past this worst slew the slew half of violation_ok() must fail: the
  // candidate then violates the limit and is worse than the incumbent.
  const Ps slew_cut =
      std::max(bench.tech.slew_limit, current_.worst_slew + 1e-6);
  const EvalResult r = evaluate_tree(slew_cut, total_cap);
  if (!r.stopped_early && improves(r, current_, objective) && violation_ok(r)) {
    close_session(session, /*keep=*/true);
    current_ = r;
    ++ivc_.accepted;
    return true;
  }
  ++ivc_.rejected;
  if (r.stopped_early) ++ivc_.rejected_slew;
  // O(dirty): undo the journal; the engine is left exactly as before.
  close_session(session, /*keep=*/false);
  return false;
}

void FlowContext::refine(
    int max_rounds, PassObjective objective,
    const std::function<int(TreeEditSession&, const EdgeSlacks&, double)>&
        round_fn) {
  double scale = 1.0;
  int rejects = 0;
  // Slacks against the benchmark's constraint block: per-domain extrema
  // and window caps when non-trivial, Definition 1 otherwise.
  SlackOptions slack_options;
  slack_options.constraints = &bench.constraints;
  EdgeSlacks slacks;
  for (int round = 0; round < max_rounds && rejects < 5; ++round) {
    // A rejected round leaves the tree and current() as they were, so its
    // slacks still hold.
    if (rejects == 0) slacks = compute_edge_slacks(tree, current_, slack_options);
    // SaveSolution as an edit journal: the round edits the incumbent in
    // place; a rejected round rolls the journal back instead of restoring
    // a whole-tree copy.
    TreeEditSession session = edit_session();
    if (round_fn(session, slacks, scale) == 0) break;
    if (try_accept(session, objective)) {
      rejects = 0;
    } else {
      ++rejects;     // keep the saved solution,
      scale *= 0.4;  // take a smaller bite next time
    }
  }
}

// -------------------------------------------------------------------- Pass --

Pass::~Pass() = default;

void Pass::set_param(const std::string& key, const std::string& value) {
  (void)value;
  throw PipelineError("pass '" + std::string(name()) +
                      "' has no parameter '" + key + "'");
}

namespace {

// ----------------------------------------------------- parameter plumbing --

long parse_long_param(const Pass& pass, const std::string& key,
                      const std::string& value) {
  try {
    std::size_t pos = 0;
    const long parsed = std::stol(value, &pos, 10);
    if (pos == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw PipelineError("pass '" + std::string(pass.name()) + "': parameter '" +
                      key + "=" + value + "' is not a valid integer");
}

double parse_double_param(const Pass& pass, const std::string& key,
                          const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (const std::exception&) {
  }
  throw PipelineError("pass '" + std::string(pass.name()) + "': parameter '" +
                      key + "=" + value + "' is not a valid number");
}

// ------------------------------------------------------ construction passes --

/// Initial tree: ZST/DME (paper Fig. 1 step 1).
class DmePass : public Pass {
 public:
  const char* name() const override { return "dme"; }
  const char* display_name() const override { return "DME"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "balance") {
      if (value == "pathlength") {
        balance_ = DmeBalance::kPathLength;
      } else if (value == "elmore") {
        balance_ = DmeBalance::kElmore;
      } else {
        throw PipelineError(
            "pass 'dme': parameter 'balance=" + value +
            "' must be 'pathlength' or 'elmore'");
      }
    } else if (key == "wire_width") {
      wire_width_ = static_cast<int>(parse_long_param(*this, key, value));
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    DmeOptions dme;
    if (balance_) dme.balance = *balance_;
    if (wire_width_) dme.wire_width = *wire_width_;
    ctx.tree = build_zst(ctx.bench, dme);
  }

 private:
  std::optional<DmeBalance> balance_;
  std::optional<int> wire_width_;
};

/// Obstacle legalization + post-detour rebalance (paper section IV-A).
class RepairPass : public Pass {
 public:
  const char* name() const override { return "repair"; }
  const char* display_name() const override { return "REPAIR"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "max_crossing") {
      max_crossing_ = parse_double_param(*this, key, value);
    } else if (key == "cap_factor") {
      cap_factor_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    ctx.require_tree("pass 'repair'");
    ObstacleRepairOptions repair;
    repair.slew_free_cap = ctx.unit_slew_cap();
    if (max_crossing_) repair.max_crossing_um = *max_crossing_;
    if (cap_factor_) repair.crossing_cap_factor = *cap_factor_;
    ctx.result.obstacles = repair_obstacles(ctx.tree, ctx.bench, repair);
    // Detours unbalance the tree; restore electrical-length balance before
    // any buffers go in (analytic, no simulation; buffered path delay
    // tracks electrical length).
    rebalance_pathlength(ctx.tree);
  }

 private:
  std::optional<Um> max_crossing_;
  std::optional<double> cap_factor_;
};

/// Composite selection + fast buffer insertion (paper section IV-C): try
/// successively stronger composites; keep the strongest whose total
/// capacitance stays within (1 - gamma) of the budget and whose evaluation
/// is slew-clean.
class InsertPass : public Pass {
 public:
  const char* name() const override { return "insert"; }
  const char* display_name() const override { return "INSERT"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "max_ladder") {
      const long ladder = parse_long_param(*this, key, value);
      if (ladder < 1) {
        throw PipelineError("pass 'insert': parameter 'max_ladder=" + value +
                            "' must be >= 1");
      }
      max_ladder_ = static_cast<int>(ladder);
    } else if (key == "reserve") {
      reserve_ = parse_double_param(*this, key, value);
    } else if (key == "spacing") {
      spacing_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    ctx.require_tree("pass 'insert'");
    const CompositeBuffer unit = ctx.unit();
    BufferInsertionOptions insertion = ctx.options.insertion;
    if (spacing_) insertion.spacing = *spacing_;
    const int max_ladder = max_ladder_ ? *max_ladder_ : ctx.options.max_ladder;
    const double reserve = reserve_ ? *reserve_ : ctx.options.power_reserve;

    std::vector<Ff> sink_caps;
    for (const Sink& s : ctx.bench.sinks) sink_caps.push_back(s.cap);
    const Ff cap_budget =
        ctx.bench.tech.cap_limit > 0.0
            ? (1.0 - reserve) * ctx.bench.tech.cap_limit
            : std::numeric_limits<double>::max();

    ClockTree buffered;
    bool have_candidate = false;
    for (int k = 1; k <= max_ladder; ++k) {
      const CompositeBuffer composite{unit.inverter_type, unit.count * k};
      ClockTree candidate = ctx.tree;
      insert_buffers(candidate, ctx.bench, composite, insertion);
      // Van Ginneken spares buffers on fast paths; topping those paths up
      // to the common depth slows exactly the fast sinks and keeps
      // per-path supply sensitivity uniform.
      equalize_stage_counts(candidate, ctx.bench, composite);
      const Ff cap = candidate.total_cap(ctx.bench.tech, sink_caps);
      if (have_candidate && cap > cap_budget) break;  // stronger only costs more
      const EvalResult r = ctx.eval.evaluate(candidate);
      const bool fits = cap <= cap_budget && !r.slew_violation;
      if (!have_candidate || fits) {
        buffered = std::move(candidate);
        ctx.result.buffer = composite;
        have_candidate = true;
      }
      if (cap > cap_budget) break;
    }
    ctx.tree = std::move(buffered);
  }

 private:
  std::optional<int> max_ladder_;
  std::optional<double> reserve_;
  std::optional<Um> spacing_;
};

/// Sink polarity correction (paper section IV-D).
class PolarityPass : public Pass {
 public:
  const char* name() const override { return "polarity"; }
  const char* display_name() const override { return "POLARITY"; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "offset") {
      offset_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    ctx.require_tree("pass 'polarity'");
    const CompositeBuffer inverter = smallest_inverter(ctx.bench.tech);
    ctx.result.polarity =
        offset_ ? correct_polarity(ctx.tree, ctx.bench, inverter, *offset_)
                : correct_polarity(ctx.tree, ctx.bench, inverter);
  }

 private:
  std::optional<Um> offset_;
};

// ------------------------------------------------------ optimization passes --

/// The calibration probe of the wire passes: FlowContext::probe.
EditProbe probe_of(FlowContext& ctx) {
  return [&ctx](const std::function<void(TreeEditSession&)>& edit) {
    return ctx.probe(edit);
  };
}

/// TBSZ: trunk sliding/interleaving + iterative buffer sizing (paper
/// sections IV-H, IV-I; CLR objective).
class TbszPass : public Pass {
 public:
  const char* name() const override { return "tbsz"; }
  const char* display_name() const override { return "TBSZ"; }
  PassObjective objective() const override { return PassObjective::kClr; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "iters") {
      iters_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "levels") {
      levels_ = static_cast<int>(parse_long_param(*this, key, value));
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    const Ff unit_slew_cap = ctx.unit_slew_cap();
    const Um max_spacing =
        0.8 * unit_slew_cap / ctx.bench.tech.wires.back().c_per_um;

    {
      // Trunk sliding/interleaving rewrites the tree structurally
      // (buffers are spliced out and re-inserted): still a whole-tree
      // candidate.
      ClockTree candidate = ctx.tree;
      slide_and_interleave_trunk(candidate, ctx.bench, ctx.result.buffer,
                                 max_spacing);
      ctx.try_accept(std::move(candidate), PassObjective::kClr);
    }
    const int iters = iters_ ? *iters_ : ctx.options.max_buffer_sizing_iters;
    for (int i = 1; i <= iters; ++i) {
      const double fraction = 1.0 / (i + 3);
      // Buffer resizes are pure edit deltas: only the resized buffers'
      // stages re-simulate, and a rejected iteration rolls back O(dirty).
      TreeEditSession session = ctx.edit_session();
      if (upsize_trunk_buffers(session, fraction) == 0) break;
      if (!ctx.try_accept(session, PassObjective::kClr)) {
        break;  // IVC fail: rollback and stop sizing
      }
    }
    {
      // Branch sizing pays for itself by borrowing bottom-level cap.
      TreeEditSession session = ctx.edit_session();
      upsize_branch_buffers(session,
                            levels_ ? *levels_ : ctx.options.branch_levels,
                            0.25);
      downsize_bottom_buffers(session, 1);
      ctx.try_accept(session, PassObjective::kClr);
    }
  }

 private:
  std::optional<int> iters_;
  std::optional<int> levels_;
};

/// TWSZ: iterative top-down wiresizing (paper section IV-E).
class TwszPass : public Pass {
 public:
  const char* name() const override { return "twsz"; }
  const char* display_name() const override { return "TWSZ"; }
  PassObjective objective() const override { return PassObjective::kSkew; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "rounds") {
      rounds_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "safety") {
      safety_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    WireSizingParams params;
    params.tws_per_um = calibrate_tws(ctx.tree, probe_of(ctx), ctx.current());
    if (safety_) params.safety = *safety_;
    const double base_safety = params.safety;
    ctx.refine(rounds_ ? *rounds_ : ctx.options.max_sizing_rounds,
               PassObjective::kSkew,
               [&](TreeEditSession& session, const EdgeSlacks& slacks,
                   double scale) {
                 params.safety = base_safety * scale;
                 return wiresizing_round(session, slacks, params);
               });
  }

 private:
  std::optional<int> rounds_;
  std::optional<double> safety_;
};

/// TWSN: iterative top-down wiresnaking (paper section IV-F).
class TwsnPass : public Pass {
 public:
  const char* name() const override { return "twsn"; }
  const char* display_name() const override { return "TWSN"; }
  PassObjective objective() const override { return PassObjective::kSkew; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "rounds") {
      rounds_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "unit") {
      unit_ = parse_double_param(*this, key, value);
    } else if (key == "safety") {
      safety_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    WireSnakingParams params;
    params.unit = unit_ ? *unit_ : ctx.options.snake_unit;
    params.twn_per_unit =
        calibrate_twn(ctx.tree, probe_of(ctx), ctx.current(), params.unit);
    if (safety_) params.safety = *safety_;
    const double base_safety = params.safety;
    ctx.refine(rounds_ ? *rounds_ : ctx.options.max_snaking_rounds,
               PassObjective::kSkew,
               [&](TreeEditSession& session, const EdgeSlacks& slacks,
                   double scale) {
                 params.safety = base_safety * scale;
                 return wiresnaking_round(session, slacks, params);
               });
  }

 private:
  std::optional<int> rounds_;
  std::optional<Um> unit_;
  std::optional<double> safety_;
};

/// BWSN: bottom-level fine-tuning (paper section IV-G).
class BwsnPass : public Pass {
 public:
  const char* name() const override { return "bwsn"; }
  const char* display_name() const override { return "BWSN"; }
  PassObjective objective() const override { return PassObjective::kSkew; }

  void set_param(const std::string& key, const std::string& value) override {
    if (key == "rounds") {
      rounds_ = static_cast<int>(parse_long_param(*this, key, value));
    } else if (key == "unit") {
      unit_ = parse_double_param(*this, key, value);
    } else if (key == "safety") {
      safety_ = parse_double_param(*this, key, value);
    } else {
      Pass::set_param(key, value);
    }
  }

  void run(FlowContext& ctx) override {
    BottomLevelParams params;
    params.unit = unit_ ? *unit_ : ctx.options.bottom_unit;
    params.twn_per_unit = calibrate_bottom_twn(ctx.tree, probe_of(ctx),
                                               ctx.current(), params.unit);
    if (safety_) params.safety = *safety_;
    const double base_safety = params.safety;
    ctx.refine(rounds_ ? *rounds_ : ctx.options.max_bottom_rounds,
               PassObjective::kSkew,
               [&](TreeEditSession& session, const EdgeSlacks& slacks,
                   double scale) {
                 params.safety = base_safety * scale;
                 return bottom_level_round(session, slacks, params);
               });
  }

 private:
  std::optional<int> rounds_;
  std::optional<Um> unit_;
  std::optional<double> safety_;
};

}  // namespace

void register_builtin_passes(PassRegistry& registry) {
  registry.add("dme", [] { return std::make_unique<DmePass>(); });
  registry.add("repair", [] { return std::make_unique<RepairPass>(); });
  registry.add("insert", [] { return std::make_unique<InsertPass>(); });
  registry.add("polarity", [] { return std::make_unique<PolarityPass>(); });
  registry.add("tbsz", [] { return std::make_unique<TbszPass>(); });
  registry.add("twsz", [] { return std::make_unique<TwszPass>(); });
  registry.add("twsn", [] { return std::make_unique<TwsnPass>(); });
  registry.add("bwsn", [] { return std::make_unique<BwsnPass>(); });
}

}  // namespace contango
