#include "cts/suite.h"

#include <algorithm>
#include <ctime>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "io/json.h"
#include "io/table.h"
#include "netlist/io.h"
#include "util/cancel.h"
#include "util/env.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/timer.h"

extern char** environ;

namespace contango {
namespace {

/// The evaluation work ledger (analysis/evaluate.h: EvalWork).
void write_work(JsonWriter& w, const EvalWork& work) {
  w.kv("sim_runs", static_cast<long>(work.sim_runs));
  w.kv("full_evals", static_cast<long>(work.full_evals));
  w.kv("incremental_evals", static_cast<long>(work.incremental_evals));
  w.kv("batched_stage_evals", work.batched_stage_evals);
  w.kv("stage_reuses", work.stage_reuses);
}

/// The IVC gate's decisions as `ivc_*` keys (cts/flow.h: IvcCounts).
void write_ivc(JsonWriter& w, const IvcCounts& ivc) {
  w.kv("ivc_accepted", static_cast<long>(ivc.accepted));
  w.kv("ivc_rejected", static_cast<long>(ivc.rejected));
  w.kv("ivc_rejected_cap", static_cast<long>(ivc.rejected_cap));
  w.kv("ivc_rejected_slew", static_cast<long>(ivc.rejected_slew));
}

}  // namespace

long SuiteReport::total_sim_runs() const {
  long total = 0;
  for (const SuiteRun& r : runs) {
    total += r.result.sim_runs;
    // Each Monte-Carlo trial is one full CNE pass; count it like any other
    // evaluation (r.result.sim_runs only covers the synthesis flow).
    if (r.has_mc) total += r.mc.trials;
  }
  return total;
}

long SuiteReport::total_full_evals() const {
  long total = 0;
  for (const SuiteRun& r : runs) {
    total += r.result.full_evals;
    if (r.has_mc) total += r.mc.trials;  // every trial is a full CNE pass
  }
  return total;
}

long SuiteReport::total_incremental_evals() const {
  long total = 0;
  for (const SuiteRun& r : runs) total += r.result.incremental_evals;
  return total;
}

long SuiteReport::total_batched_stage_evals() const {
  long total = 0;
  for (const SuiteRun& r : runs) {
    total += r.result.batched_stage_evals;
    if (r.has_mc) total += r.mc.batched_stage_evals;
  }
  return total;
}

double SuiteReport::cpu_seconds() const {
  double total = 0.0;
  for (const SuiteRun& r : runs) total += r.seconds;
  return total;
}

bool SuiteReport::all_ok() const {
  for (const SuiteRun& r : runs) {
    if (!r.ok) return false;
  }
  return true;
}

long SuiteReport::illegal_runs() const {
  long count = 0;
  for (const SuiteRun& r : runs) {
    if (r.ok && !r.result.eval.legal()) ++count;
  }
  return count;
}

std::string SuiteReport::table() const {
  bool any_mc = false;
  bool any_cons = false;
  for (const SuiteRun& r : runs) {
    any_mc = any_mc || r.has_mc;
    // domain_skews is filled exactly when the benchmark carried a
    // non-trivial constraint block; legacy suites keep the legacy table.
    any_cons = any_cons || !r.result.eval.domain_skews.empty();
  }

  std::vector<std::string> headers = {"Benchmark", "Sinks",    "Blk%",
                                      "CLR, ps",   "Skew, ps", "Latency, ps",
                                      "Cap, pF",   "Legal",    "Sims",
                                      "CPU, s"};
  if (any_cons) {
    headers.insert(headers.end(), {"Dom skew", "Cons viol"});
  }
  if (any_mc) {
    headers.insert(headers.end(),
                   {"MC skew u", "MC p95", "MC p99", "MC CLR p95", "Yield%"});
  }
  TextTable table(std::move(headers));
  for (const SuiteRun& r : runs) {
    if (!r.ok) {
      table.add_row({r.benchmark, std::to_string(r.num_sinks),
                     r.cancelled ? "CANCELLED" : "FAILED: " + r.error});
      continue;
    }
    std::vector<std::string> row = {r.benchmark, std::to_string(r.num_sinks),
                                    TextTable::num(100.0 * r.obstacle_density, 1),
                                    TextTable::num(r.result.eval.clr, 2),
                                    TextTable::num(r.result.eval.nominal_skew, 3),
                                    TextTable::num(r.result.eval.max_latency, 1),
                                    TextTable::num(r.result.eval.total_cap / 1000.0, 2),
                                    !r.result.eval.legal() ? "no"
                                    : r.slew_marginal      ? "yes*"
                                                           : "yes",
                                    std::to_string(r.result.sim_runs),
                                    TextTable::num(r.seconds, 1)};
    if (any_cons) {
      if (r.result.eval.domain_skews.empty()) {
        row.insert(row.end(), {"-", "-"});
      } else {
        double worst_domain_skew = 0.0;
        for (const Ps s : r.result.eval.domain_skews) {
          worst_domain_skew = std::max(worst_domain_skew, s);
        }
        row.insert(row.end(),
                   {TextTable::num(worst_domain_skew, 3),
                    TextTable::num(r.result.eval.constraint_violation(), 3)});
      }
    }
    if (r.has_mc) {
      row.insert(row.end(), {TextTable::num(r.mc.skew.mean, 3),
                             TextTable::num(r.mc.skew.p95, 3),
                             TextTable::num(r.mc.skew.p99, 3),
                             TextTable::num(r.mc.clr.p95, 2),
                             TextTable::num(100.0 * r.mc.yield, 1)});
    }
    table.add_row(std::move(row));
  }
  std::string text = table.to_string();
  if (std::any_of(runs.begin(), runs.end(),
                  [](const SuiteRun& r) { return r.slew_marginal; })) {
    text += "* legal, but the worst slew is within the kernel's " +
            TextTable::num(kSlewErrorBound, 2) + " ps slew error of the limit\n";
  }
  return text;
}

std::string SuiteReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "contango_suite_report");
  w.kv("threads", static_cast<long>(threads));
  w.kv("wall_seconds", wall_seconds);
  w.kv("process_cpu_seconds", process_cpu_seconds);
  w.kv("total_sim_runs", total_sim_runs());
  w.kv("total_full_evals", total_full_evals());
  w.kv("total_incremental_evals", total_incremental_evals());
  w.kv("total_batched_stage_evals", total_batched_stage_evals());
  w.kv("all_ok", all_ok());
  w.kv("illegal_runs", illegal_runs());
  w.key("runs");
  w.begin_array();
  for (const SuiteRun& r : runs) {
    w.begin_object();
    w.kv("benchmark", r.benchmark);
    w.kv("num_sinks", static_cast<long>(r.num_sinks));
    w.kv("benchmark_hash", r.benchmark_hash);
    w.kv("num_obstacle_rects", static_cast<long>(r.num_obstacle_rects));
    w.kv("num_obstacle_compounds", static_cast<long>(r.num_obstacle_compounds));
    w.kv("obstacle_union_area_um2", r.obstacle_union_area_um2);
    w.kv("obstacle_density", r.obstacle_density);
    w.kv("ok", r.ok);
    w.kv("cancelled", r.cancelled);
    if (!r.ok) {
      w.kv("error", r.error);
      w.end_object();
      continue;
    }
    w.kv("seconds", r.seconds);
    // CPU the flow's level sweeps ran on borrowed cores (a timing key).
    w.kv("helper_cpu_seconds", r.result.helper_cpu_seconds);
    if (r.load_seconds >= 0.0) w.kv("load_seconds", r.load_seconds);
    write_work(w, r.result);
    write_ivc(w, r.result.ivc);
    w.kv("clr_ps", r.result.eval.clr);
    w.kv("skew_ps", r.result.eval.nominal_skew);
    w.kv("max_latency_ps", r.result.eval.max_latency);
    w.kv("worst_slew_ps", r.result.eval.worst_slew);
    w.kv("total_cap_ff", r.result.eval.total_cap);
    w.kv("legal", r.result.eval.legal());
    w.kv("slew_marginal", r.slew_marginal);
    // Constraint metrics appear only for runs whose benchmark carried a
    // non-trivial TimingConstraints block, keeping legacy reports
    // byte-identical.
    if (!r.result.eval.domain_skews.empty()) {
      w.key("domain_skews_ps");
      w.begin_array();
      for (const Ps s : r.result.eval.domain_skews) w.value(s);
      w.end_array();
      w.kv("worst_window_violation_ps", r.result.eval.worst_window_violation);
      w.kv("worst_domain_bound_violation_ps",
           r.result.eval.worst_domain_bound_violation);
      w.kv("constraints_met", r.result.eval.constraints_met());
    }
    w.kv("pipeline_spec", r.result.pipeline_spec);
    // Per-pass cost accounting: where this run's wall/CPU time and
    // simulation budget went (ablation sweeps diff these blocks).
    w.key("passes");
    w.begin_array();
    for (const PassTiming& p : r.result.pass_timings) {
      w.begin_object();
      w.kv("name", p.name);
      w.kv("wall_seconds", p.wall_seconds);
      w.kv("cpu_seconds", p.cpu_seconds);
      write_work(w, p);
      write_ivc(w, p.ivc);
      w.end_object();
    }
    w.end_array();
    // The Table III axis: per-stage snapshots of the optimization flow.
    w.key("stages");
    w.begin_array();
    for (const StageSnapshot& s : r.result.stages) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("skew_ps", s.skew);
      w.kv("clr_ps", s.clr);
      w.kv("max_latency_ps", s.max_latency);
      w.kv("cap_ff", s.cap);
      w.kv("sim_runs", static_cast<long>(s.sim_runs));
      w.end_object();
    }
    w.end_array();
    if (r.has_mc) {
      // Embed the MC report without its per-trial samples: suite reports
      // are the release-over-release record, and the summary is what CI
      // diffs.  Full samples come from McReport::to_json(true).
      w.key("mc");
      w.begin_object();
      w.kv("trials", static_cast<long>(r.mc.trials));
      w.kv("seed", static_cast<unsigned long long>(r.mc.model.seed));
      w.kv("sigma_vdd", r.mc.model.sigma_vdd);
      w.kv("skew_target_ps", r.mc.skew_target);
      w.kv("skew_mean_ps", r.mc.skew.mean);
      w.kv("skew_stddev_ps", r.mc.skew.stddev);
      w.kv("skew_p50_ps", r.mc.skew.p50);
      w.kv("skew_p95_ps", r.mc.skew.p95);
      w.kv("skew_p99_ps", r.mc.skew.p99);
      w.kv("skew_max_ps", r.mc.skew.max);
      w.kv("clr_mean_ps", r.mc.clr.mean);
      w.kv("clr_p95_ps", r.mc.clr.p95);
      w.kv("clr_p99_ps", r.mc.clr.p99);
      w.kv("max_latency_p95_ps", r.mc.max_latency.p95);
      w.kv("yield", r.mc.yield);
      w.kv("legal_fraction", r.mc.legal_fraction);
      w.kv("batched_stage_evals", r.mc.batched_stage_evals);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

SuiteReport run_suite(const std::vector<Benchmark>& suite,
                      const SuiteOptions& options) {
  SuiteReport report;
  report.runs.resize(suite.size());
  // No more workers than benchmarks: the rest would only idle.
  const int requested = options.threads <= 0 ? hardware_threads()
                                             : options.threads;
  report.threads = std::max(1, std::min(requested, static_cast<int>(suite.size())));

  // Resolve the pipeline once up front: a malformed spec (unknown pass,
  // bad parameter override, a parameter some benchmark cannot take)
  // throws here, before any run starts, instead of failing every
  // benchmark individually inside the workers.  So does a benchmark the
  // workers could not take the content hash of (it checks what the
  // writers check), since a pool task must not throw.
  const Pipeline pipeline = Pipeline::from_options(options.flow);
  for (const Benchmark& bench : suite) {
    check_writable(bench);
    pipeline.check(bench);
  }
  const FlowOptions& flow = options.flow;

  // Benchmark::obstacles() builds its cache lazily through mutable members,
  // so warm it here while the suite is still single-threaded; the workers
  // then only ever read the benchmarks.
  for (const Benchmark& bench : suite) bench.obstacles();

  Timer suite_timer;
  const std::clock_t cpu_start = std::clock();
  std::mutex done_mutex;
  ThreadPool pool(report.threads);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    pool.submit([&, i] {
      const Benchmark& bench = suite[i];
      SuiteRun& run = report.runs[i];
      run.benchmark = bench.name;
      run.num_sinks = static_cast<int>(bench.sinks.size());
      const ObstacleSet& obstacles = bench.obstacles();  // warmed above
      run.num_obstacle_rects = static_cast<int>(obstacles.rects().size());
      run.num_obstacle_compounds = static_cast<int>(obstacles.compounds().size());
      run.obstacle_union_area_um2 = obstacles.union_area();
      run.obstacle_density = bench.die.area() > 0.0
                                 ? obstacles.union_area() / bench.die.area()
                                 : 0.0;
      run.benchmark_hash = benchmark_content_hash(bench).hex();
      if (i < options.load_seconds.size()) {
        run.load_seconds = options.load_seconds[i];
      }
      if (options.on_run_start) {
        std::lock_guard<std::mutex> lock(done_mutex);
        options.on_run_start(run);
      }
      Timer run_timer;
      const auto mark_cancelled = [&run] {
        run.ok = false;
        run.cancelled = true;
        run.error = "cancelled";
      };
      try {
        // Benchmark boundaries are suite-level cancellation points; the
        // pipeline adds pass-boundary points of its own (both poll
        // flow.cancel), so a cancelled suite drains in at most one pass.
        if (flow.cancel.cancelled()) throw CancelledError();
        // The flow computes on one token of the process-wide core budget;
        // its level sweeps and Monte-Carlo trials borrow whatever tokens
        // the other workers (and other suites) leave free.  Results are
        // thread-count invariant, so the split only moves wall time.
        const CoreToken core;
        run_timer.reset();  // a run's time starts once it has its core
        run.result = run_contango(bench, flow);
        run.ok = true;
        run.slew_marginal = run.result.eval.slew_marginal(bench.tech.slew_limit);
        if (options.mc_trials > 0) {
          if (flow.cancel.cancelled()) throw CancelledError();
          McOptions mc;
          mc.trials = options.mc_trials;
          mc.threads = flow.eval.threads;  // same cap as the level sweep
          mc.skew_target = options.mc_skew_target;
          mc.eval = flow.eval;
          run.mc = run_montecarlo(bench, run.result.tree, options.variation, mc);
          run.has_mc = true;
        }
      } catch (const CancelledError&) {
        mark_cancelled();
      } catch (const std::exception& e) {
        run.ok = false;
        run.error = e.what();
      } catch (...) {
        run.ok = false;
        run.error = "unknown exception";
      }
      run.seconds = run_timer.seconds();
      if (options.on_run_done) {
        std::lock_guard<std::mutex> lock(done_mutex);
        options.on_run_done(run);
      }
    });
  }
  pool.wait();
  report.wall_seconds = suite_timer.seconds();
  report.process_cpu_seconds =
      static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
  if (!options.json_report_path.empty()) {
    write_text_file(options.json_report_path, report.to_json() + "\n");
  }
  return report;
}

SuiteReport run_suite_spec(const std::string& spec, std::uint64_t seed,
                           const SuiteOptions& options) {
  SuiteOptions timed_options = options;
  const std::vector<Benchmark> suite =
      collect_workloads(spec, seed, &timed_options.load_seconds);
  return run_suite(suite, timed_options);
}

std::vector<std::string> unknown_contango_env_vars() {
  // Every CONTANGO_* knob read anywhere in the tree: the library
  // (suite/env/log), the bench drivers and the examples.  Grep for
  // "CONTANGO_" when adding a knob and extend this list — the
  // unknown-env-var test fails loudly on a knob that warns about itself.
  static const char* const kKnown[] = {
      "CONTANGO_FIG3_BENCHMARK",
      "CONTANGO_JSON_OUT",
      "CONTANGO_LOG",
      "CONTANGO_MAX_SINKS",
      "CONTANGO_MC_SEED",
      "CONTANGO_MC_SIGMA_SINK",
      "CONTANGO_MC_SIGMA_VDD",
      "CONTANGO_MC_SIGMA_WIRE",
      "CONTANGO_MC_SKEW_TARGET",
      "CONTANGO_MC_TRIALS",
      "CONTANGO_PIPELINE",
      "CONTANGO_SCENARIO",
      "CONTANGO_SEED",
      "CONTANGO_SOCKET",
      "CONTANGO_TABLE3_BENCHMARKS",
      "CONTANGO_TABLE4_BENCHMARKS",
      "CONTANGO_THREADS",
      "CONTANGO_WORKLOADS",
  };
  const std::string prefix = "CONTANGO_";
  const std::string test_prefix = "CONTANGO_TEST_";
  std::vector<std::string> unknown;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    const std::size_t eq = entry.find('=');
    const std::string name = entry.substr(0, eq);  // npos -> whole entry
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(0, test_prefix.size(), test_prefix) == 0) continue;
    bool known = false;
    for (const char* k : kKnown) known = known || name == k;
    if (!known) unknown.push_back(name);
  }
  return unknown;
}

SuiteOptions suite_options_from_env(SuiteOptions base) {
  // A misspelled knob (CONTANGO_THREDS=4) silently running the default
  // configuration is worse than a crash in a benchmark harness — call the
  // typo out, but keep going: the variable may belong to a future binary.
  for (const std::string& name : unknown_contango_env_vars()) {
    Log::warn("unrecognized environment variable %s (knob typo?)",
              name.c_str());
  }
  Log::level_from_env();  // rejects an unknown CONTANGO_LOG, naming it
  base.threads = static_cast<int>(env_long("CONTANGO_THREADS", base.threads));
  if (base.threads < 0) {
    throw std::runtime_error("CONTANGO_THREADS=" + std::to_string(base.threads) +
                             " must be >= 0 (0 = hardware concurrency)");
  }
  base.mc_trials =
      static_cast<int>(env_long("CONTANGO_MC_TRIALS", base.mc_trials));
  if (base.mc_trials < 0) {
    throw std::runtime_error("CONTANGO_MC_TRIALS=" +
                             std::to_string(base.mc_trials) +
                             " must be >= 0 (0 disables Monte-Carlo)");
  }
  const double default_sigma =
      base.variation.sigma_vdd > 0.0 ? base.variation.sigma_vdd : 0.05;
  base.variation.sigma_vdd =
      env_double("CONTANGO_MC_SIGMA_VDD", default_sigma);
  if (base.variation.sigma_vdd < 0.0) {
    throw std::runtime_error("CONTANGO_MC_SIGMA_VDD must be >= 0");
  }
  base.variation.seed = static_cast<std::uint64_t>(env_long(
      "CONTANGO_MC_SEED", static_cast<long>(base.variation.seed)));
  base.mc_skew_target =
      env_double("CONTANGO_MC_SKEW_TARGET", base.mc_skew_target);
  base.json_report_path = env_string("CONTANGO_JSON_OUT", base.json_report_path);
  base.flow.pipeline = env_string("CONTANGO_PIPELINE", base.flow.pipeline);
  if (!base.flow.pipeline.empty()) {
    // Fail fast on a bad spec, naming the knob: discovering the mistake
    // per-benchmark inside a suite run would be far noisier.
    try {
      Pipeline::from_spec(base.flow.pipeline);
    } catch (const PipelineError& e) {
      throw std::runtime_error(std::string("CONTANGO_PIPELINE: ") + e.what());
    }
  }
  return base;
}

}  // namespace contango
