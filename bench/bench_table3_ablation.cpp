// Reproduces the ablation axis of the paper's Table III — "run the flow
// with stages removed" — as a pipeline-spec sweep: the full default
// pipeline plus one variant per optimization pass (tbsz, twsz, twsn, bwsn)
// with exactly that pass removed, all over the same workload set.
//
// Alongside the final metrics, each run carries per-pass wall/CPU time and
// simulation counts (FlowResult::pass_timings), so the sweep shows both
// what a stage buys *and* what it costs.
//
// Knobs (suite_options_from_env + the workload knobs):
//   CONTANGO_WORKLOADS  collect_workloads spec (default "ring")
//   CONTANGO_SEED       registry seed (default 1)
//   CONTANGO_THREADS    suite worker count per variant
//   CONTANGO_MC_TRIALS  optional Monte-Carlo pass per run (default 0 = off)
//   CONTANGO_JSON_OUT   combined machine-readable ablation report: one
//                       embedded suite report per variant
//
//   ./bench_table3_ablation
//   CONTANGO_WORKLOADS=uniform,clustered CONTANGO_JSON_OUT=ablation.json \
//       ./bench_table3_ablation

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "cts/suite.h"
#include "io/json.h"
#include "io/table.h"
#include "util/env.h"

using namespace contango;

int main() {
  SuiteOptions base;
  std::string workloads;
  std::uint64_t seed = 1;
  try {
    base = suite_options_from_env();
    workloads = env_string("CONTANGO_WORKLOADS", "ring");
    seed = static_cast<std::uint64_t>(env_long("CONTANGO_SEED", 1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  std::printf("== Table III ablation: single-pass-removed pipelines ==\n\n");
  const std::string json_path = base.json_report_path;
  base.json_report_path.clear();  // one combined report, written below

  std::vector<Benchmark> suite;
  try {
    suite = collect_workloads(workloads, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "CONTANGO_WORKLOADS: %s\n", e.what());
    return 1;
  }

  const std::string full_spec = resolved_pipeline_spec(base.flow);
  std::printf("workloads: %s (seed %llu)\nbase pipeline: %s\n\n",
              workloads.c_str(), static_cast<unsigned long long>(seed),
              full_spec.c_str());

  struct Variant {
    std::string label;
    std::string removed;  ///< empty for the full pipeline
    std::string spec;
  };
  std::vector<Variant> variants{{"full flow", "", full_spec}};
  for (const std::string pass : {"tbsz", "twsz", "twsn", "bwsn"}) {
    if (pipeline_spec_contains(full_spec, pass)) {
      variants.push_back({"no " + pass, pass,
                          pipeline_spec_without(full_spec, pass)});
    }
  }

  TextTable table({"Variant", "Pipeline", "Skew, ps", "CLR, ps", "Cap, pF",
                   "Sims", "Wall, s"});
  std::vector<SuiteReport> reports;
  bool all_ok = true;
  for (const Variant& v : variants) {
    SuiteOptions options = base;
    options.flow.pipeline = v.spec;
    const SuiteReport report = run_suite(suite, options);
    all_ok = all_ok && report.all_ok();
    double skew = 0.0, clr = 0.0, cap = 0.0;
    for (const SuiteRun& r : report.runs) {
      skew += r.result.eval.nominal_skew;
      clr += r.result.eval.clr;
      cap += r.result.eval.total_cap;
    }
    const double n = static_cast<double>(report.runs.empty() ? 1 : report.runs.size());
    table.add_row({v.label, v.spec, TextTable::num(skew / n, 3),
                   TextTable::num(clr / n, 2),
                   TextTable::num(cap / n / 1000.0, 2),
                   std::to_string(report.total_sim_runs()),
                   TextTable::num(report.wall_seconds, 1)});
    reports.push_back(report);
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("(averages over %zu workload(s); removing TBSZ costs CLR,\n"
              " removing TWSZ/TWSN/BWSN costs skew — the Table III shape)\n\n",
              suite.size());

  // Per-pass cost accounting of the full pipeline on the first workload.
  if (!reports.empty() && !reports.front().runs.empty() &&
      reports.front().runs.front().ok) {
    const SuiteRun& run = reports.front().runs.front();
    TextTable passes({"Pass", "Wall, s", "CPU, s", "Sims"});
    for (const PassTiming& p : run.result.pass_timings) {
      passes.add_row({p.name, TextTable::num(p.wall_seconds, 2),
                      TextTable::num(p.cpu_seconds, 2),
                      std::to_string(p.sim_runs)});
    }
    std::printf("-- per-pass cost, full flow on %s --\n%s\n",
                run.benchmark.c_str(), passes.to_string().c_str());
  }

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("type", "contango_ablation_report");
    w.kv("workloads", workloads);
    w.kv("seed", static_cast<unsigned long long>(seed));
    w.kv("base_pipeline", full_spec);
    w.key("variants");
    w.begin_array();
    for (std::size_t i = 0; i < variants.size(); ++i) {
      w.begin_object();
      w.kv("variant", variants[i].label);
      w.kv("removed_pass", variants[i].removed);
      w.kv("pipeline_spec", variants[i].spec);
      w.key("report");
      w.raw_value(reports[i].to_json());
      w.end_object();
    }
    w.end_array();
    w.end_object();
    try {
      write_text_file(json_path, w.str() + "\n");
      std::printf("wrote %s\n", json_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "CONTANGO_JSON_OUT: %s\n", e.what());
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}
