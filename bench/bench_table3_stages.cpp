// Reproduces Table III of the paper: CLR and skew after each Contango
// optimization stage (INITIAL -> TBSZ -> TWSZ -> TWSN -> BWSN) on the
// seven-benchmark suite.  This bench also exercises the Fig. 1 methodology:
// every stage transition is gated by Clock-Network Evaluation plus
// Improvement- & Violation-Checking inside run_contango().
//
// Shape to match (paper): TBSZ trades skew for CLR; TWSZ cuts skew by a
// large factor; TWSN pushes skew toward single digits; BWSN shaves the
// remainder.  Absolute picoseconds differ (synthetic benchmarks, simulator
// substrate) but the trajectory must hold.

#include <cstdio>
#include <exception>

#include "cts/flow.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/env.h"

using namespace contango;

int main() {
  long limit = 0;
  try {
    limit = env_long("CONTANGO_TABLE3_BENCHMARKS", 7);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  std::printf("== Table III: progress achieved by individual Contango steps ==\n");
  std::printf("(per stage: CLR / skew in ps)\n\n");

  const char* stage_names[] = {"INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"};
  TextTable table({"Benchmark", "INITIAL CLR/skew", "TBSZ CLR/skew",
                   "TWSZ CLR/skew", "TWSN CLR/skew", "BWSN CLR/skew", "sims"});

  for (int i = 0; i < static_cast<int>(limit) && i < 7; ++i) {
    const Benchmark bench = generate_ispd_like(ispd09_suite_params(i));
    const FlowResult r = run_contango(bench);
    std::vector<std::string> row{bench.name};
    for (const char* name : stage_names) {
      const StageSnapshot* s = r.stage(name);
      row.push_back(s ? TextTable::num(s->clr, 2) + " / " + TextTable::num(s->skew, 3)
                      : "-");
    }
    row.push_back(std::to_string(r.sim_runs));
    table.add_row(row);
    std::fflush(stdout);
  }
  std::printf("%s", table.to_string().c_str());

  std::printf("\nGray-highlight semantics from the paper: TBSZ optimizes CLR\n"
              "(skew may rise); TWSZ/TWSN/BWSN optimize skew.\n");
  return 0;
}
