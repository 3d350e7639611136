// Yield-curve study with the Monte-Carlo variation engine: synthesize one
// scenario, then sweep the supply-noise magnitude and watch the skew
// distribution fatten and the yield (fraction of trials meeting the skew
// target) fall off — the evaluation axis the ISPD contests judged by.
//
//   ./example_variation_study [family] [trials] [json_out]
//
// Defaults: family = ring, trials = 96.  When json_out is given, the full
// Monte-Carlo report of the last sweep point (per-trial samples included)
// is written there as JSON.
//
//   ./example_variation_study clustered 256 mc.json
//
// The study also demonstrates the engine's reproducibility contract: the
// final sweep point is recomputed on a different worker count and must be
// bit-identical.

#include <cstdio>
#include <exception>
#include <string>

#include "analysis/montecarlo.h"
#include "cts/flow.h"
#include "cts/scenario.h"
#include "io/json.h"
#include "io/table.h"
#include "util/env.h"
#include "util/log.h"

using namespace contango;

int main(int argc, char** argv) {
  const std::string family = (argc > 1) ? argv[1] : "ring";
  const std::string json_out = (argc > 3) ? argv[3] : "";

  try {
    Log::level_from_env();
    const int trials = (argc > 2) ? parse_int("trials", argv[2]) : 96;
    const Benchmark bench = make_scenario(family, /*seed=*/1);
    std::printf("synthesizing '%s' (%zu sinks)...\n", bench.name.c_str(),
                bench.sinks.size());
    const FlowResult flow = run_contango(bench);
    std::printf("nominal: skew %.3f ps, CLR %.2f ps, latency %.1f ps\n\n",
                flow.eval.nominal_skew, flow.eval.clr, flow.eval.max_latency);

    McOptions options;
    options.trials = trials;
    options.threads = 0;  // hardware concurrency; results identical at any count
    options.skew_target = 10.0;

    TextTable table({"sigma_vdd", "skew mean", "sigma", "p95", "p99", "max",
                     "CLR p99", "Yield%"});
    McReport last;
    for (const double sigma : {0.0, 0.02, 0.05, 0.08, 0.12}) {
      VariationModel model;
      model.sigma_vdd = sigma;
      model.sigma_wire_r = sigma / 2.0;
      model.sigma_wire_c = sigma / 2.0;
      model.seed = 1;
      last = run_montecarlo(bench, flow.tree, model, options);
      table.add_row({TextTable::num(sigma, 3),
                     TextTable::num(last.skew.mean, 3),
                     TextTable::num(last.skew.stddev, 3),
                     TextTable::num(last.skew.p95, 3),
                     TextTable::num(last.skew.p99, 3),
                     TextTable::num(last.skew.max, 3),
                     TextTable::num(last.clr.p99, 2),
                     TextTable::num(100.0 * last.yield, 1)});
    }
    std::printf("%d trials per point, skew target %.1f ps (skew/CLR in ps):\n%s\n",
                trials, options.skew_target, table.to_string().c_str());

    // Reproducibility check: same model, serial worker — must be identical.
    McOptions serial = options;
    serial.threads = 1;
    VariationModel model;
    model.sigma_vdd = 0.12;
    model.sigma_wire_r = 0.06;
    model.sigma_wire_c = 0.06;
    model.seed = 1;
    const McReport redo = run_montecarlo(bench, flow.tree, model, serial);
    const bool identical = redo.skew.mean == last.skew.mean &&
                           redo.skew.p99 == last.skew.p99 &&
                           redo.yield == last.yield;
    std::printf("serial re-run bit-identical to %d-thread run: %s\n",
                last.threads, identical ? "yes" : "NO (BUG)");

    if (!json_out.empty()) {
      write_text_file(json_out, last.to_json(/*with_samples=*/true) + "\n");
      std::printf("JSON report (with per-trial samples) written to %s\n",
                  json_out.c_str());
    }
    return identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "variation_study: %s\n", e.what());
    return 1;
  }
}
