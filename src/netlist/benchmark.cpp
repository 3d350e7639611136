#include "netlist/benchmark.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace contango {
namespace {

/// True when an electrical value is finite and non-negative (`positive`:
/// strictly positive).
bool electrical_ok(double v, bool positive) {
  return std::isfinite(v) && (positive ? v > 0.0 : v >= 0.0);
}

/// Throws the rejection of one electrical value, naming the benchmark, the
/// field and the value.  Only called on failure, so the checks themselves
/// never allocate.
[[noreturn]] void reject_electrical(const Benchmark& bench,
                                    const std::string& field, double v,
                                    bool positive) {
  std::ostringstream value;
  value.precision(17);
  value << v;
  throw std::invalid_argument("benchmark '" + bench.name + "': " + field +
                              " is " + value.str() + " (must be finite and " +
                              (positive ? "> 0" : ">= 0") + ")");
}

void check_electrical(const Benchmark& bench, const char* field, double v,
                      bool positive) {
  if (!electrical_ok(v, positive)) {
    reject_electrical(bench, field, v, positive);
  }
}

/// Same, for a field of a named wire or inverter.
void check_electrical(const Benchmark& bench, const char* kind,
                      const std::string& name, const char* field, double v,
                      bool positive) {
  if (!electrical_ok(v, positive)) {
    reject_electrical(bench, std::string(kind) + " '" + name + "' " + field, v,
                      positive);
  }
}

}  // namespace

void validate(const Benchmark& bench) {
  if (!bench.die.valid() || bench.die.area() <= 0.0) {
    throw std::invalid_argument("benchmark '" + bench.name + "': empty die");
  }
  if (!bench.die.contains(bench.source)) {
    throw std::invalid_argument("benchmark '" + bench.name +
                                "': source outside die");
  }
  if (bench.sinks.empty()) {
    throw std::invalid_argument("benchmark '" + bench.name + "': no sinks");
  }
  for (const Sink& s : bench.sinks) {
    if (!bench.die.contains(s.position)) {
      throw std::invalid_argument("benchmark '" + bench.name + "': sink '" +
                                  s.name + "' outside die");
    }
    // Spelled out rather than through check_electrical: this loop runs
    // over every sink and must stay as cheap as the position check.
    if (!electrical_ok(s.cap, false)) {
      reject_electrical(bench, "sink '" + s.name + "' cap", s.cap, false);
    }
  }
  const Technology& tech = bench.tech;
  if (tech.wires.empty() || tech.inverters.empty()) {
    throw std::invalid_argument("benchmark '" + bench.name +
                                "': incomplete technology");
  }
  check_electrical(bench, "source_res", bench.source_res, false);
  check_electrical(bench, "slew_limit", tech.slew_limit, true);
  // cap_limit 0 means "no limit".
  check_electrical(bench, "cap_limit", tech.cap_limit, false);
  check_electrical(bench, "supply_alpha", tech.supply_alpha, false);
  check_electrical(bench, "rise_fall_ratio", tech.rise_fall_ratio, true);
  for (std::size_t i = 0; i < tech.corners.size(); ++i) {
    if (!electrical_ok(tech.corners[i], true)) {
      reject_electrical(bench, "corner " + std::to_string(i), tech.corners[i],
                        true);
    }
  }
  for (const WireType& w : tech.wires) {
    check_electrical(bench, "wire", w.name, "r_per_um", w.r_per_um, true);
    check_electrical(bench, "wire", w.name, "c_per_um", w.c_per_um, false);
  }
  for (const InverterType& inv : tech.inverters) {
    check_electrical(bench, "inverter", inv.name, "input_cap", inv.input_cap,
                     false);
    check_electrical(bench, "inverter", inv.name, "output_cap", inv.output_cap,
                     false);
    check_electrical(bench, "inverter", inv.name, "output_res", inv.output_res,
                     true);
    check_electrical(bench, "inverter", inv.name, "intrinsic_delay",
                     inv.intrinsic_delay, false);
  }
  for (const Rect& r : bench.obstacle_rects) {
    if (!r.valid()) {
      throw std::invalid_argument("benchmark '" + bench.name +
                                  "': invalid obstacle rect");
    }
  }
  validate_constraints(bench.constraints, bench.sinks.size(),
                       "benchmark '" + bench.name + "'");
}

}  // namespace contango
