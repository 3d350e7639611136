#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist/benchmark.h"

namespace contango {

/// \file scenario.h
/// \brief Named, parameterized benchmark-scenario families.
///
/// The suite runner (cts/suite.h) consumes plain Benchmark vectors; this
/// registry is where those vectors come from when they are not read from
/// disk.  Each *family* is a named recipe over the synthetic generators
/// (netlist/generators.h) — "uniform", "ring", "obstacle_dense", ... — and
/// every (family, seed, num_sinks) triple maps to exactly one Benchmark, so
/// scenarios are enumerable, reproducible across platforms (the generators
/// draw from the portable util/rng.h) and addressable from the command line
/// or an env knob by name alone.
///
/// Typical use:
///
///     Benchmark b = make_scenario("ring", /*seed=*/7);
///     std::vector<Benchmark> all = ScenarioRegistry::builtin().make_all(1);
///     std::vector<Benchmark> mix = collect_workloads("ring,uniform:300,benchmarks", 1);

/// \brief The closed table of scenario families, enumerable by name.
///
/// builtin() is the only instance: the ten stock families, in a fixed
/// order.  A family is a plain generator call, so its instances depend on
/// (seed, num_sinks) alone.
class ScenarioRegistry {
 public:
  /// Builds one instance of a family.  `seed` drives all randomness;
  /// `num_sinks` is the family default when 0.
  using Factory = Benchmark (*)(std::uint64_t seed, int num_sinks);

  /// One named scenario family.
  struct Family {
    std::string name;         ///< table key, e.g. "obstacle_dense"
    std::string description;  ///< one-line summary shown by tools
    int default_sinks = 0;    ///< sink count used when the caller passes 0
    Factory factory = nullptr;
  };

  /// True when `name` is a stock family.
  bool contains(const std::string& name) const;

  /// \brief Looks a family up by name.
  /// \throws std::out_of_range for unknown names, listing the known ones
  const Family& family(const std::string& name) const;

  /// All families in table order.
  const std::vector<Family>& families() const { return families_; }

  /// Family names in table order.
  std::vector<std::string> names() const;

  /// \brief Instantiates one scenario.
  ///
  /// The returned benchmark is renamed `<family>_s<seed>` (plus `_n<sinks>`
  /// when the sink count is overridden) so suite reports stay readable when
  /// the same family appears at several seeds or sizes.
  /// \param name stock family name
  /// \param seed generator seed; same (name, seed, num_sinks) => same benchmark
  /// \param num_sinks sink-count override; 0 uses the family default
  /// \throws std::out_of_range for unknown names
  Benchmark make(const std::string& name, std::uint64_t seed, int num_sinks = 0) const;

  /// One instance of every family at the given seed, in table order.
  std::vector<Benchmark> make_all(std::uint64_t seed) const;

  /// The ten stock families: uniform, clustered, ring, obstacle_dense,
  /// high_fanout, mixed_cap, huge, multidomain, usefulskew, mega.
  static const ScenarioRegistry& builtin();

 private:
  explicit ScenarioRegistry(std::vector<Family> families)
      : families_(std::move(families)) {}

  std::vector<Family> families_;
};

/// Shorthand for ScenarioRegistry::builtin().make(...).
Benchmark make_scenario(const std::string& name, std::uint64_t seed, int num_sinks = 0);

/// \brief Resolves a comma-separated workload spec into benchmarks.
///
/// Each element of `spec` is, tried in this order:
///   1. a stock family name, optionally with a `:<num_sinks>` override
///      (e.g. `ring` or `high_fanout:1000`) — instantiated at `seed`;
///   2. a `.bench` (text) or `.cbench` (binary, netlist/binio.h) file path
///      — loaded from disk;
///   3. a directory path — every `.bench`/`.cbench` file in it, sorted by
///      filename (a directory may mix both formats).
///
/// Examples: `"uniform,ring:256"`, `"benchmarks"`,
/// `"benchmarks/ring_s1.bench,mega_1m.cbench,clustered"`.
///
/// `load_seconds` (when non-null) is cleared and filled index-aligned with
/// the returned vector: generator wall time for family elements, parse
/// time for `.bench` files, read+validate+decode time for `.cbench`
/// files.  Suite runners thread these into SuiteRun::load_seconds so the
/// trajectory separates I/O wins from kernel wins.
/// \throws std::invalid_argument for an element that is neither a known
///         family nor an existing path; parse errors propagate as
///         BenchmarkParseError
std::vector<Benchmark> collect_workloads(const std::string& spec, std::uint64_t seed,
                                         std::vector<double>* load_seconds = nullptr);

}  // namespace contango
