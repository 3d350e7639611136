#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/variation.h"
#include "cts/flow.h"
#include "netlist/benchmark.h"

namespace contango {

/// \file suite.h
/// \brief Parallel benchmark-suite runner: fans the full Contango flow out
/// over a workload list and renders an input-order-stable report.
///
/// Workloads come from three interchangeable sources — the synthetic
/// generators (netlist/generators.h), the scenario registry
/// (cts/scenario.h) and `.bench` files on disk (netlist/io.h) — and all of
/// them funnel into run_suite() as plain Benchmark vectors.
/// run_suite_spec() is the one-call form that resolves a textual workload
/// spec first.

struct SuiteRun;

/// Options of a benchmark-suite run.
struct SuiteOptions {
  /// Applied to every benchmark in the suite.  A malformed
  /// `flow.pipeline` spec, or one that cannot run on some benchmark
  /// (Pipeline::check), makes run_suite() throw PipelineError before any
  /// run starts.  Benchmark drivers bind `flow.pipeline` to the
  /// CONTANGO_PIPELINE env knob.
  FlowOptions flow;

  /// Worker threads fanning out `run_contango` calls; 0 picks the hardware
  /// concurrency, 1 runs the suite serially on the calling thread.  Never
  /// more workers than benchmarks are started (SuiteReport::threads).
  /// Benchmark drivers bind this to the CONTANGO_THREADS env knob.
  /// Each worker holds one token of the process-wide core budget
  /// (util/parallel.h) per flow, blocking while none is free; the flow's
  /// level sweeps and Monte-Carlo trials borrow the tokens other workers
  /// leave free (up to `flow.eval.threads` threads, 0 = all cores).  So a
  /// suite — or several concurrent daemon jobs — runs about one compute
  /// thread per core, and a long-pole flow widens once the others finish.
  int threads = 0;

  /// Monte-Carlo trials per benchmark after synthesis (analysis/
  /// montecarlo.h); 0 disables the variation analysis.  Benchmark drivers
  /// bind this to CONTANGO_MC_TRIALS.
  int mc_trials = 0;

  /// Variation magnitudes + substream seed of the per-benchmark Monte-Carlo
  /// pass.  CONTANGO_MC_SIGMA_VDD binds sigma_vdd.
  VariationModel variation;

  /// Yield target of the Monte-Carlo pass: a trial passes when its skew is
  /// at most this and no violation occurred.
  Ps mc_skew_target = 10.0;

  /// When non-empty, run_suite() serializes the finished report (including
  /// per-benchmark Monte-Carlo summaries, excluding per-trial samples) as
  /// JSON to this path via io/json.  Benchmark drivers bind this to
  /// CONTANGO_JSON_OUT.  Write failures throw after all runs completed.
  std::string json_report_path;

  /// Progress hook invoked once per finished run (completion order, which
  /// may differ from input order).  Calls are serialized by the runner, so
  /// the callback may print without its own locking.  Leave empty for none.
  /// The service daemon streams its per-benchmark `progress` events from
  /// this hook; example_parallel_suite prints live progress with it.
  std::function<void(const SuiteRun&)> on_run_done;

  /// Progress hook invoked when a worker picks a benchmark up, before any
  /// synthesis work.  Only the identification fields of the run (benchmark,
  /// num_sinks, benchmark_hash, obstacle stats) are filled at that point.
  /// Serialized with on_run_done by the same lock.
  std::function<void(const SuiteRun&)> on_run_start;

  /// Per-benchmark acquisition wall times (generator call, text parse or
  /// `.cbench` load), index-aligned with the suite passed to
  /// run_suite(); entries copy into SuiteRun::load_seconds so reports
  /// separate I/O cost from flow cost.  Leave empty when unknown — shorter
  /// vectors simply leave the remaining runs unannotated.
  /// run_suite_spec() fills this from the timed collect_workloads().
  std::vector<double> load_seconds;

  // Cancellation note: the runner polls `flow.cancel` (util/cancel.h)
  // before each benchmark — and the pipeline polls it at pass boundaries —
  // so a cancelled suite finishes quickly with the remaining runs marked
  // `cancelled` and the report (incl. CONTANGO_JSON_OUT) still written.
};

/// Outcome of one benchmark inside a suite run.
struct SuiteRun {
  std::string benchmark;  ///< Benchmark::name
  int num_sinks = 0;

  /// Stable content hash of the benchmark (hex of
  /// benchmark_content_hash(), netlist/io.h): identical across platforms
  /// and across generated-vs-reparsed copies of the same instance, so
  /// downstream tooling can correlate reports of the same workload.
  std::string benchmark_hash;

  /// Obstacle-density statistics of the benchmark floorplan (filled for
  /// every run, even failed ones).  The union area comes from the Klee
  /// sweep in geom/spatial.h.
  int num_obstacle_rects = 0;
  int num_obstacle_compounds = 0;
  double obstacle_union_area_um2 = 0.0;  ///< area of the union of all rects
  double obstacle_density = 0.0;         ///< union area / die area, 0..1
  FlowResult result;
  double seconds = 0.0;  ///< wall time of this run on its worker

  /// Wall time spent acquiring this benchmark (parse/load/generate) before
  /// the suite started, from SuiteOptions::load_seconds; negative when
  /// unknown.  JSON reports emit `load_seconds` only when known, so
  /// reports without load timing stay unchanged.
  double load_seconds = -1.0;
  bool ok = false;       ///< false when the flow threw; see `error`
  std::string error;

  /// True when this run was stopped by the suite's cancellation token
  /// (flow.cancel) — either before it started or at a pass boundary —
  /// rather than failing on its own.  Cancelled runs have ok == false and
  /// error == "cancelled".
  bool cancelled = false;

  bool has_mc = false;  ///< true when the Monte-Carlo pass ran for this run
  McReport mc;          ///< valid when has_mc
};

/// Deterministic, input-order-stable report of a whole suite.  `runs[i]`
/// always corresponds to `suite[i]` no matter which worker finished first,
/// so serial and parallel executions of the same suite produce identical
/// reports (modulo wall times).
struct SuiteReport {
  std::vector<SuiteRun> runs;
  int threads = 0;           ///< worker count actually used (<= runs, >= 1)
  double wall_seconds = 0.0; ///< whole-suite wall time (not the sum of runs)

  /// Process CPU time consumed by the suite across all workers.  Divide by
  /// `wall_seconds` for the achieved concurrency — this stays honest under
  /// oversubscription, where per-run wall times inflate.
  double process_cpu_seconds = 0.0;

  /// Aggregated evaluation count across all runs ("SPICE runs"), including
  /// one per Monte-Carlo trial when the MC pass ran.
  long total_sim_runs() const;

  /// Split of total_sim_runs() by evaluation mode: full-tree extractions +
  /// propagations (synthesis full evals + every MC trial) vs. incremental
  /// dirty-path re-propagations.  The Table V sweep tracks the full-eval
  /// drop the incremental engine buys.
  long total_full_evals() const;
  long total_incremental_evals() const;

  /// Stage-evaluation units — (stage x corner x transition) transient
  /// integrations — spent across all runs (synthesis plus Monte-Carlo).
  long total_batched_stage_evals() const;

  /// Sum of per-run wall times.  Each run's wall time includes time its
  /// worker spent descheduled, so on an oversubscribed machine this
  /// overstates the serial-equivalent cost — prefer `process_cpu_seconds`
  /// for utilization figures.
  double cpu_seconds() const;

  /// True when every run finished without throwing.  An illegal result
  /// still counts as ok; illegal_runs() counts those.
  bool all_ok() const;

  /// Runs that finished but whose final evaluation is not legal (slew or
  /// cap limit violated, or a sink unreached: EvalResult::legal).
  long illegal_runs() const;

  /// Renders the per-benchmark results (CLR, skew, latency, cap, legality,
  /// sims, CPU) as a fixed-width text table via io/table.  When any run carries
  /// Monte-Carlo results, the table grows MC columns (mean/p95/p99 skew and
  /// yield against the skew target).
  std::string table() const;

  /// Serializes the whole report as JSON (io/json): suite-level totals plus
  /// one object per run, including the Monte-Carlo summary when present
  /// (per-trial samples are omitted to keep suite reports compact).
  std::string to_json() const;
};

/// \brief Runs `run_contango` over every benchmark of the suite on a pool
/// of `options.threads` workers and collects per-run results plus wall
/// times.
///
/// Each worker uses its own Evaluator, so runs are fully independent; a run
/// that throws is recorded as `ok == false` with the exception message and
/// does not abort the rest of the suite.  Results are bit-identical to a
/// serial run of the same suite.
/// \param suite the workloads; runs[i] of the report corresponds to suite[i]
/// \param options worker count, flow options and progress hook
/// \throws std::invalid_argument before any run starts when a benchmark
///         fails check_writable (netlist/io.h), and PipelineError when the
///         pipeline cannot run on one
SuiteReport run_suite(const std::vector<Benchmark>& suite,
                      const SuiteOptions& options = {});

/// \brief Resolves a workload spec and runs it through run_suite().
///
/// `spec` is the comma-separated syntax of collect_workloads()
/// (cts/scenario.h): registered scenario-family names with optional
/// `:<num_sinks>` overrides, `.bench` file paths, and directories of
/// `.bench` files, in any mix — e.g. `"ring,high_fanout:1000,benchmarks"`.
/// \param spec workload spec; resolution errors propagate before any run starts
/// \param seed seed for every scenario instantiated from the registry
/// \param options forwarded to run_suite()
SuiteReport run_suite_spec(const std::string& spec, std::uint64_t seed,
                           const SuiteOptions& options = {});

/// \brief Applies the harness env knobs (util/env.h) on top of `base`:
///
///   CONTANGO_THREADS         -> threads
///   CONTANGO_PIPELINE        -> flow.pipeline (cts/pipeline.h syntax)
///   CONTANGO_MC_TRIALS       -> mc_trials (0 keeps MC off)
///   CONTANGO_MC_SIGMA_VDD    -> variation.sigma_vdd (default 0.05)
///   CONTANGO_MC_SEED         -> variation.seed
///   CONTANGO_MC_SKEW_TARGET  -> mc_skew_target (ps)
///   CONTANGO_JSON_OUT        -> json_report_path
///
/// Benchmark drivers call this so every binary honors the same knobs.
/// Malformed values are configuration mistakes and are rejected, not
/// silently coerced: a non-numeric CONTANGO_THREADS, a negative
/// CONTANGO_MC_TRIALS or an invalid CONTANGO_PIPELINE spec all throw with
/// the variable named in the message.  CONTANGO_* variables that no
/// Contango binary reads (e.g. the typo CONTANGO_BATH=0) are reported
/// through Log::warn — a misspelled knob silently reverting to the default
/// is the worst failure mode a benchmark harness can have.
SuiteOptions suite_options_from_env(SuiteOptions base = {});

/// \brief Names of set CONTANGO_* environment variables no Contango binary
/// reads — almost always knob typos.
///
/// The recognized set is the union of every knob across the library, the
/// bench drivers and the examples (a suite driver must not warn about
/// another binary's knob); `CONTANGO_TEST_`-prefixed names are reserved
/// for tests and never reported.
std::vector<std::string> unknown_contango_env_vars();

}  // namespace contango
