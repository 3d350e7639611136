// Reproduces Table I of the paper: electrical analysis of the ISPD'09
// inverter library under parallel composition, plus the dominance argument
// that makes Contango prefer 8x small inverters over large ones.

#include <cstdio>
#include <exception>

#include "cts/buflib.h"
#include "io/table.h"
#include "netlist/library.h"
#include "util/log.h"

using namespace contango;

int main() {
  try {
    Log::level_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad environment: %s\n", e.what());
    return 1;
  }
  const Technology tech = ispd09_technology();

  std::printf("== Table I: inverter analysis for ISPD'09 CNS benchmarks ==\n\n");
  TextTable table({"INVERTER TYPE", "Input Cap., fF", "Output Cap., fF", "Res., Ohm"});
  struct Row {
    const char* label;
    CompositeBuffer buffer;
  };
  const Row rows[] = {
      {"1X Large", {1, 1}}, {"1X Small", {0, 1}}, {"2X Small", {0, 2}},
      {"4X Small", {0, 4}}, {"8X Small", {0, 8}},
  };
  for (const Row& row : rows) {
    const CompositeElectrical e = tech.electrical(row.buffer);
    table.add_row({row.label, TextTable::num(e.input_cap, 1),
                   TextTable::num(e.output_cap, 1),
                   TextTable::num(e.output_res * 1000.0, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const CompositeElectrical small8 = tech.electrical(CompositeBuffer{0, 8});
  const CompositeElectrical large1 = tech.electrical(CompositeBuffer{1, 1});
  std::printf("8X small dominates 1X large: %s\n",
              dominates(small8, large1) ? "yes" : "no");

  const CompositeBuffer unit = best_unit_composite(tech);
  std::printf("selected unit composite: %dx %s\n", unit.count,
              tech.inverters[static_cast<std::size_t>(unit.inverter_type)].name.c_str());

  std::printf("\nnon-dominated composites (count <= 32):\n");
  TextTable front({"Config", "Input Cap., fF", "Output Cap., fF", "Res., Ohm",
                   "slew-free cap, fF"});
  for (const CompositeBuffer& b : nondominated_composites(tech, 32)) {
    const CompositeElectrical e = tech.electrical(b);
    front.add_row({std::to_string(b.count) + "x " +
                       tech.inverters[static_cast<std::size_t>(b.inverter_type)].name,
                   TextTable::num(e.input_cap, 1), TextTable::num(e.output_cap, 1),
                   TextTable::num(e.output_res * 1000.0, 1),
                   TextTable::num(slew_free_cap(tech, b), 1)});
  }
  std::printf("%s", front.to_string().c_str());
  return 0;
}
