#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/transient.h"
#include "netlist/benchmark.h"
#include "rctree/clocktree.h"
#include "rctree/extract.h"

namespace contango {

/// Transition direction at the clock source.
enum class Transition : int { kRise = 0, kFall = 1 };
inline constexpr int kNumTransitions = 2;

/// Latency and slew of one sink for one (corner, source transition) pair.
struct SinkTiming {
  Ps latency = 0.0;
  Ps slew = 0.0;
  bool reached = false;  ///< false if the sink is missing from the tree
};

/// Timing of the full network at one supply corner.
struct CornerTiming {
  Volt vdd = 0.0;
  /// sinks[transition][sink_index]
  std::array<std::vector<SinkTiming>, kNumTransitions> sinks;
  Ps max_slew = 0.0;  ///< worst 10-90% slew at any tap (sinks + buffer inputs)

  Ps max_latency() const;
  Ps min_latency() const;
  /// Worst skew over transitions: max over t of (max - min latency).
  Ps skew() const;
};

/// Result of one Clock-Network Evaluation (CNE) pass.
struct EvalResult {
  std::vector<CornerTiming> corners;  ///< same order as Technology::corners

  Ps nominal_skew = 0.0;  ///< corner 0 skew (the contest's "skew")
  Ps clr = 0.0;           ///< max latency @ low corner - min latency @ nominal
  Ps max_latency = 0.0;   ///< nominal corner
  Ps worst_slew = 0.0;    ///< across all corners
  Ff total_cap = 0.0;
  bool slew_violation = false;
  bool cap_violation = false;
  bool all_sinks_reached = true;

  /// Constraint metrics (netlist/constraints.h), filled only when the
  /// benchmark carries a non-trivial constraint block; all three stay at
  /// their defaults otherwise, so the legacy result is bit-identical.
  /// Per-domain skew `Tmax_d - Tmin_d` at the nominal corner, worst over
  /// transitions (the per-domain analogue of `nominal_skew`).
  std::vector<Ps> domain_skews;
  /// Worst per-sink window violation over every (corner, transition):
  /// max over sinks of `max(lo - r, r - hi, 0)` where `r` is the sink's
  /// arrival relative to the earliest reached sink.  0 = all windows hold.
  Ps worst_window_violation = 0.0;
  /// Worst inter-domain bound violation over every (corner, transition):
  /// max over bounds {a, b, B} of `max(Tmax_a - Tmin_b, Tmax_b - Tmin_a) - B`
  /// clamped at 0.  0 = all bounds hold.
  Ps worst_domain_bound_violation = 0.0;

  /// True when a gated sweep stopped at a level boundary because its worst
  /// slew had already passed the caller's slew cut
  /// (IncrementalEvaluator::evaluate): the stages below were not simulated.
  /// Then only the capacitance fields are final, and `worst_slew` is a
  /// lower bound that already exceeds the cut.
  bool stopped_early = false;

  bool legal() const { return !slew_violation && !cap_violation && all_sinks_reached; }

  /// Legal, but with the worst slew within the kernel's slew error
  /// (kSlewErrorBound) of `slew_limit`: a finer step might put it over.
  /// Reported only; legal() and the IVC gate do not look at it.
  bool slew_marginal(Ps slew_limit) const {
    return legal() && worst_slew >= slew_limit - kSlewErrorBound;
  }

  /// Worst violation of the generalized constraint vector (0 when every
  /// window and inter-domain bound holds — always 0 for trivial blocks).
  Ps constraint_violation() const {
    return worst_window_violation > worst_domain_bound_violation
               ? worst_window_violation
               : worst_domain_bound_violation;
  }
  bool constraints_met() const { return constraint_violation() <= 0.0; }
};

/// Options of the evaluation harness.
struct EvalOptions {
  ExtractOptions extract;
  TransientOptions transient;
  Ps source_input_slew = 10.0;  ///< transition time of the external clock

  /// Worker cap of the level sweep (LevelSweep), the one propagation
  /// behind every evaluation: the stages of one stage-graph depth level
  /// are simulated on the calling thread plus helpers borrowed from the
  /// process-wide core budget (util/parallel.h), up to this many threads
  /// in all.  0 caps at hardware_threads(), so a sweep takes as many cores
  /// as are free at each level — all of them for a lone flow, the ones
  /// finished suite workers left free inside run_suite().  1 keeps the
  /// sweep on the calling thread.  Full evaluations (Evaluator::evaluate)
  /// and incremental ones sweep under the same cap; Monte-Carlo trials,
  /// already spread across McOptions::threads, sweep on one thread each.
  /// Results and every counter are bit-identical for any value, so it is
  /// an execution mode, not a result-affecting option (the service cache
  /// key ignores it).
  int threads = 0;
};

/// \brief The evaluation work ledger: what an Evaluator has spent, read in
/// one call (Evaluator::work).  The pipeline books the difference of two
/// readings per pass (PassTiming) and the last reading per flow
/// (FlowResult), both in cts/flow.h.
struct EvalWork {
  /// Evaluations ("SPICE runs"); sim_runs == full_evals + incremental_evals.
  int sim_runs = 0;
  /// Full-tree extractions + propagations (Evaluator::evaluate).
  int full_evals = 0;
  /// Dirty-path re-propagations (IncrementalEvaluator::evaluate).
  int incremental_evals = 0;
  /// Stage-evaluation units — (stage x corner x transition) transient
  /// integrations — simulated.
  long batched_stage_evals = 0;
  /// Stage-evaluation units incremental evaluations replayed from their
  /// cache instead of simulating them.
  long stage_reuses = 0;
  /// Always 0: kept only because the benchmark driver still sums it.
  static constexpr long scalar_stage_evals = 0;
};

inline EvalWork operator-(const EvalWork& a, const EvalWork& b) {
  return EvalWork{a.sim_runs - b.sim_runs, a.full_evals - b.full_evals,
                  a.incremental_evals - b.incremental_evals,
                  a.batched_stage_evals - b.batched_stage_evals,
                  a.stage_reuses - b.stage_reuses};
}

/// Step of the stage-boundary slew grid: 2^-30 ps.  Every input slew a
/// buffer stage receives from the stage above is a multiple of it.
inline constexpr Ps kStageSlewGrid = 0x1p-30;

/// Rounds `slew` to the nearest multiple of kStageSlewGrid (ties to even).
/// The result is exact, within 2^-31 ps of `slew`, and 0, ±inf and NaN pass
/// through unchanged.  fan_out_taps applies it to the slew a buffer tap
/// hands its child stage — in every evaluation, full, incremental and
/// Monte Carlo alike — and to nothing else: sink slews, worst slews and
/// delays stay unrounded.  Since the kernel's step grid follows the input
/// slew to the last bit (TransientOptions::time_step_div), an unrounded
/// last-bit change upstream would make the incremental cache re-simulate
/// every stage below it; on the grid, such a change replays.  The 2^-31 ps
/// error is far below the kernel's own slew error (kSlewErrorBound).
Ps quantize_stage_slew(Ps slew);

struct VariationModel;  // analysis/variation.h
struct McOptions;       // analysis/montecarlo.h
struct McReport;        // analysis/montecarlo.h

/// Fills `total_cap`/`cap_violation` of `result` — the capacitance half of
/// CNE that the propagation cannot compute (it needs the ClockTree).
/// `sink_caps[i]` is the pin cap of benchmark sink i.
void account_capacitance(EvalResult& result, const ClockTree& tree,
                         const Benchmark& bench, const std::vector<Ff>& sink_caps);
/// The same from an already computed total capacitance.
void account_capacitance(EvalResult& result, Ff total_cap, const Technology& tech);

/// Clock-Network Evaluation: runs the transient engine over every stage of
/// the tree for every (supply corner x source transition) combination and
/// aggregates skew, CLR, slew and capacitance checks.  Each evaluate() call
/// counts as one simulation run — the analogue of the paper's SPICE-run
/// budget (Table V reports those counts).
class Evaluator {
 public:
  explicit Evaluator(const Benchmark& bench, EvalOptions options = {});

  /// Full evaluation: builds a fresh RcNetlist of `tree` and runs the
  /// level sweep over it with nothing cached, on up to
  /// `options().threads` threads.  Reentrant: all workspace is local.
  EvalResult evaluate(const ClockTree& tree);

  /// Counts one run in sim_runs(), as a full or an incremental evaluation.
  /// Every evaluation books itself; the IVC gate (cts/pass.h) also books a
  /// candidate it rejects before simulating, as the evaluation that
  /// candidate would have cost, so sim_runs() keeps counting every attempt.
  void book_run(bool incremental);

  /// Number of evaluate() calls so far ("SPICE runs").  Atomic so that
  /// per-thread evaluator counts can be read and aggregated (e.g. into a
  /// suite-wide total) while other workers are still evaluating.
  /// Every run is counted exactly once more as either a *full* evaluation
  /// (from-scratch extraction + whole-tree propagation: evaluate()) or an
  /// *incremental* one (IncrementalEvaluator::evaluate, re-propagated along
  /// dirty paths only; the flow's calibration probes are such runs), so
  /// sim_runs() == full_evals() + incremental_evals().
  int sim_runs() const { return sim_runs_.load(std::memory_order_relaxed); }
  int full_evals() const { return full_evals_.load(std::memory_order_relaxed); }
  int incremental_evals() const {
    return incremental_evals_.load(std::memory_order_relaxed);
  }

  /// Finer-grained work accounting in (stage x corner x transition) units:
  /// transient stage simulations executed by the kernel across
  /// evaluate() and IncrementalEvaluator.
  long batched_stage_evals() const {
    return batched_stage_evals_.load(std::memory_order_relaxed);
  }

  /// Stage-evals an incremental sweep replayed from its cache instead of
  /// simulating them, in the same units (0 for full evaluations).
  long stage_reuses() const {
    return stage_reuses_.load(std::memory_order_relaxed);
  }

  /// The five counters above in one reading.
  EvalWork work() const {
    return EvalWork{sim_runs(), full_evals(), incremental_evals(),
                    batched_stage_evals(), stage_reuses()};
  }

  /// CPU seconds spent on helper threads of the level sweeps of
  /// evaluate() and IncrementalEvaluator — work the calling thread's own
  /// CPU clock does not see.  Always 0 with `options().threads == 1` or
  /// while no core token is free.  The pipeline adds the per-pass delta to
  /// PassTiming::cpu_seconds.
  double helper_cpu_seconds() const {
    return 1e-9 * static_cast<double>(helper_cpu_ns_.load(std::memory_order_relaxed));
  }

  void reset_sim_runs() {
    sim_runs_.store(0, std::memory_order_relaxed);
    full_evals_.store(0, std::memory_order_relaxed);
    incremental_evals_.store(0, std::memory_order_relaxed);
    batched_stage_evals_.store(0, std::memory_order_relaxed);
    stage_reuses_.store(0, std::memory_order_relaxed);
    helper_cpu_ns_.store(0, std::memory_order_relaxed);
  }

  const Benchmark& benchmark() const { return bench_; }
  const EvalOptions& options() const { return options_; }
  const TransientSimulator& simulator() const { return sim_; }
  const std::vector<Ff>& sink_caps() const { return sink_caps_; }

 private:
  friend class IncrementalEvaluator;

  /// Books one sweep's kernel work, cache replays and helper CPU time.
  void add_sweep_work(long stage_evals, long stage_reuses, double helper_cpu);

  const Benchmark& bench_;
  EvalOptions options_;
  TransientSimulator sim_;
  std::vector<Ff> sink_caps_;
  std::atomic<int> sim_runs_{0};
  std::atomic<int> full_evals_{0};
  std::atomic<int> incremental_evals_{0};
  std::atomic<long> batched_stage_evals_{0};
  std::atomic<long> stage_reuses_{0};
  std::atomic<std::int64_t> helper_cpu_ns_{0};
};

/// \brief The Clock-Network Evaluation propagation: the one StageEvent
/// recurrence behind Evaluator::evaluate(), IncrementalEvaluator and every
/// Monte-Carlo trial (analysis/montecarlo.h).
///
/// run() sweeps an RcNetlist's stage graph one depth level at a time
/// (RcNetlist::topo_levels()), every (supply corner x source transition)
/// combination together: a slot's drives go through one
/// simulate_stage_batch() call over its Stage, and its tap timings hand
/// each child its input event.  A level's stages depend only on
/// levels above it, so they are split across up to `max_threads` workers
/// (a level of width 1 runs inline).  The result does not depend on the
/// split because every write is disjoint: a stage writes only its own
/// cache entries, the input events of its children (each child has one
/// parent) and the sinks it drives (each sink has one driving stage); its
/// worst tap slew goes to a per-stage slot that is max-reduced in
/// topological order after the sweep.  Each worker owns its kernel
/// workspace and work tallies, summed after the sweep, so every counter is
/// thread-count invariant too.
///
/// With `reuse`, the sweep keeps per-(slot x corner x transition) tap
/// timings between runs and re-simulates a (slot x corner x transition)
/// exactly when an input of its kernel call — the slot's contents
/// (RcNetlist::version), its input direction or its input slew, a point of
/// the stage-boundary grid (quantize_stage_slew) — differs from the cached
/// call; everything else replays the cache.  Without it
/// every slot is simulated from the stages passed in.  Either way a slot's
/// misses go through one kernel call, which runs its own Elmore sweep, so
/// the tap timings are the only state kept between runs.
/// Capacitance accounting is the caller's job (account_capacitance).
///
/// While the netlist has an edit session open (RcNetlist::session), a
/// reusing sweep journals every cache entry it overwrites, once per
/// session, in the overwriting worker's own journal (no locks):
/// rollback_journal() puts the saved entries back, drop_journal() forgets
/// them.  Every entry is keyed by everything its kernel call read, so
/// either choice is exact; rolling back after a rejected candidate just
/// makes the incumbent's timings hit again.
///
/// Private to the three engines that run it.  Not reentrant: each thread
/// sweeping at once needs its own instance.
class LevelSweep {
  friend class Evaluator;
  friend class IncrementalEvaluator;
  friend McReport run_montecarlo(const Benchmark& bench, const ClockTree& tree,
                                 const VariationModel& model,
                                 const McOptions& options);

  /// Work of the last run().
  struct Tally {
    long sims = 0;          ///< stage-evals simulated by the kernel
    long reuses = 0;        ///< stage-evals replayed from the cache
    double helper_cpu = 0;  ///< CPU seconds spent off the calling thread
  };

  /// One CNE propagation over the slots of `net`.
  /// \param eval supplies the benchmark, simulator and source slew
  /// \param stages the stages to simulate, by slot id: `net.stages()`, or a
  ///        Monte-Carlo worker's copy of them carrying one trial's perturbed
  ///        node values; `net` still supplies the topology, the versions
  ///        and the session
  /// \param slot_vdd_delta optional per-slot supply offsets (volts): each
  ///        corner evaluates slot i at `corner + (*slot_vdd_delta)[i]`.
  ///        nullptr puts every slot exactly at the corner voltage
  /// \param max_threads worker cap, caller included; 0 = hardware_threads()
  /// \param reuse whether cached tap timings may be replayed (needs
  ///        `stages` to be `net.stages()` itself, and no supply offsets)
  /// \param slew_cut once the worst tap slew of the levels swept so far
  ///        exceeds this, the sweep stops before the next level and the
  ///        result is marked EvalResult::stopped_early.  Worst slew only
  ///        grows with more levels, so the full result would exceed it too.
  ///        The default (infinity) never stops and skips the per-level max.
  EvalResult run(const Evaluator& eval, const RcNetlist& net,
                 const std::vector<Stage>& stages,
                 const std::vector<Volt>* slot_vdd_delta,
                 int max_threads, bool reuse,
                 Ps slew_cut = std::numeric_limits<Ps>::infinity());

  const Tally& last() const { return last_; }

  /// Drops every cached timing, and the journal.
  void clear_cache() {
    timings_.clear();
    drop_journal();
  }

  /// Puts back every cache entry journaled in the current session.
  void rollback_journal();
  /// Forgets the journal: the overwriting entries stay.
  void drop_journal();

  struct CachedTiming {
    std::uint64_t version = 0;  ///< 0 = invalid
    Transition in_dir = Transition::kRise;
    Ps in_slew = 0.0;
    std::vector<TapTiming> taps;
    /// Session whose journal holds this entry's predecessor (0 = none).
    std::uint64_t journaled_in = 0;
  };
  /// A journaled cache entry: its pre-session contents and where they go.
  struct SavedTiming {
    int slot = 0;
    int combo = 0;
    CachedTiming entry;
  };
  /// One sweep worker's private state.  The combos of one slot that need
  /// the kernel are gathered in the miss buffers and simulated in one
  /// simulate_stage_batch() call, whose rows land in `miss_taps`.
  struct Worker {
    TransientScratch scratch;
    std::vector<BatchDrive> miss_drives;
    std::vector<int> miss_combos;
    std::vector<TapTiming> miss_taps;
    /// The first `journaled` entries are live; the rest are spare storage
    /// that the next saves swap tap buffers with, so journaling allocates
    /// nothing in steady state.
    std::vector<SavedTiming> journal;
    std::size_t journaled = 0;
    Tally tally;
  };

  /// timings_[slot][corner * kNumTransitions + transition]
  std::vector<std::vector<CachedTiming>> timings_;
  std::vector<Worker> workers_;
  /// Netlist session the journals belong to (0 = none).
  std::uint64_t journal_session_ = 0;
  /// Worst tap slew per (topo position x corner) of the current sweep.
  std::vector<Ps> slot_max_slew_;
  Tally last_;
};

/// \brief Incremental Clock-Network Evaluation over a persistent RcNetlist.
///
/// Binds to one evolving ClockTree and keeps two layers of state alive
/// between evaluations:
///   * the staged RC netlist itself (RcNetlist — dirty stages re-extract);
///   * per-(stage x corner x source transition) transient tap timings —
///     the top-down delay state.
///
/// evaluate() refreshes the netlist, then runs the level sweep with
/// reuse: the transient engine re-runs only where a stage's contents or
/// its input (direction, slew) changed; everything else replays the
/// cached tap timings, and only the cheap arrival-time additions are
/// redone.  A stage is re-simulated exactly when any input of its kernel
/// call differs from the cached call (its input slew is on the
/// stage-boundary grid in every evaluation alike: quantize_stage_slew), so
/// the result is **bit-identical** to Evaluator::evaluate() on the same
/// tree — the equivalence the IVC loops (cts/pass.h) and the fuzz tests
/// rely on.
///
/// Edits reach the engine through a TreeEditSession constructed with
/// netlist(); each evaluate() counts one simulation run (an incremental
/// one) on the owning Evaluator.  The session is a transaction: after
/// TreeEditSession::rollback() and rollback_session() the netlist, its
/// slot versions and the cached tap timings are exactly as before the
/// session, so a rejected candidate costs the next evaluation nothing.
class IncrementalEvaluator {
 public:
  explicit IncrementalEvaluator(Evaluator& eval) : eval_(eval) {}

  /// (Re)binds to `tree` and schedules a full rebuild.  The tree must
  /// outlive the binding (FlowContext owns both).
  void bind(const ClockTree& tree);
  bool bound() const { return tree_ != nullptr; }
  const ClockTree* bound_tree() const { return tree_; }

  /// Dirty-tracking handle for TreeEditSession.  \pre bound()
  RcNetlist& netlist() { return net_; }

  /// Everything is stale (the bound tree changed behind our back): the
  /// next evaluate() rebuilds and re-simulates from scratch.
  void invalidate_all() { net_.mark_all_dirty(); }

  /// One CNE pass over the bound tree; see class comment.  The sweep stops
  /// early once the worst slew passes `slew_cut` (LevelSweep::run): the
  /// stages it simulated keep valid cache entries (they are keyed by
  /// version and input) and the ones below keep their old entries.
  /// `total_cap`, when given, is the bound tree's total capacitance as
  /// ClockTree::total_cap() computes it (the IVC gate has it already).
  /// Inside an edit session the overwritten cache entries are journaled
  /// for rollback_session().  \pre bound()
  EvalResult evaluate(Ps slew_cut = std::numeric_limits<Ps>::infinity(),
                      std::optional<Ff> total_cap = std::nullopt);

  /// Closes the cache side of an edit session whose TreeEditSession has
  /// just rolled back: every cache entry the session's evaluations
  /// overwrote gets its pre-session contents back.  With the netlist's
  /// versions restored as well, the engine is exactly as before the
  /// session, and the next evaluate() of the incumbent simulates nothing.
  void rollback_session() { sweep_.rollback_journal(); }
  /// The same for a session that was committed: drops the journal.
  void commit_session() { sweep_.drop_journal(); }

 private:
  Evaluator& eval_;
  const ClockTree* tree_ = nullptr;
  RcNetlist net_;
  LevelSweep sweep_;
};

/// Evaluates a tree with `edit` applied through an edit session, then rolls
/// the edit back (FlowContext::probe).  The calibrations of the wire passes
/// (cts/wiresizing.h, cts/wiresnaking.h, cts/bottomlevel.h) take one.
using EditProbe =
    std::function<EvalResult(const std::function<void(TreeEditSession&)>&)>;

/// Worst latency increase of `probed` over `baseline` across the sink
/// nodes `sinks` of `tree`, every corner and both transitions (pairs where
/// either evaluation missed the sink are skipped); 0 when nothing rose.
/// The wire passes' calibrations read their delay coefficients off it.
Ps worst_latency_rise(const ClockTree& tree, const std::vector<NodeId>& sinks,
                      const EvalResult& baseline, const EvalResult& probed);

/// Effective driver resistance for a stage driver: applies supply-corner
/// scaling and rise/fall asymmetry to the nominal output resistance.
KOhm effective_driver_res(KOhm nominal, const Technology& tech, Volt vdd,
                          Transition output_transition);

/// Effective intrinsic delay under supply scaling.
Ps effective_intrinsic(Ps nominal, const Technology& tech, Volt vdd);

}  // namespace contango
