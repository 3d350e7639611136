#include "cts/scenario.h"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/env.h"
#include "util/rng.h"

namespace contango {
namespace {

/// Common knobs of the ispd-like families, varied per family below.
IspdGenParams ispd_base(std::uint64_t seed, int num_sinks) {
  IspdGenParams p;
  p.die_w = 12000.0;
  p.die_h = 12000.0;
  p.num_sinks = num_sinks;
  p.seed = seed;
  return p;
}

/// "uniform, clustered, ring, ..." for error messages.
std::string join_names(const ScenarioRegistry& registry) {
  std::string joined;
  for (const ScenarioRegistry::Family& f : registry.families()) {
    if (!joined.empty()) joined += ", ";
    joined += f.name;
  }
  return joined;
}

/// Parses a whole string as a non-negative int; returns -1 when any
/// character is left over ("1e3", "64k") so typos never silently pass as a
/// sink count.
int parse_exact_int(const std::string& text) {
  try {
    std::size_t consumed = 0;
    const int value = std::stoi(text, &consumed);
    if (consumed != text.size() || value < 0) return -1;
    return value;
  } catch (const std::exception&) {
    return -1;
  }
}

/// Attaches a deterministic multi-clock-domain constraint block: 2-4
/// domains (CONTANGO_DOMAINS overrides the seed-derived count), sinks
/// assigned by die quadrant so domains are spatially coherent — quadrant
/// membership is pure comparisons, so the assignment is bit-portable —
/// and a pairwise inter-domain skew bound per domain pair.
void apply_multidomain_constraints(Benchmark& bench, std::uint64_t seed) {
  Rng rng(seed ^ 0x646f6d61696e73ULL);  // "domains"
  long num_domains = env_long("CONTANGO_DOMAINS", 0);
  if (num_domains < 0 || num_domains == 1 || num_domains > 64) {
    throw std::invalid_argument(
        "CONTANGO_DOMAINS must be 0 (seed-derived) or in [2, 64], got " +
        std::to_string(num_domains));
  }
  if (num_domains == 0) num_domains = rng.uniform_int(2, 4);

  TimingConstraints& cons = bench.constraints;
  cons = TimingConstraints{};
  for (long d = 0; d < num_domains; ++d) {
    cons.domain_names.push_back("clk" + std::to_string(d));
  }
  const Um cx = 0.5 * (bench.die.xlo + bench.die.xhi);
  const Um cy = 0.5 * (bench.die.ylo + bench.die.yhi);
  cons.sink_domains.reserve(bench.sinks.size());
  for (const Sink& s : bench.sinks) {
    const int quadrant = (s.position.x >= cx ? 1 : 0) |
                         (s.position.y >= cy ? 2 : 0);
    cons.sink_domains.push_back(
        static_cast<std::uint32_t>(quadrant % num_domains));
  }
  for (long a = 0; a < num_domains; ++a) {
    for (long b = a + 1; b < num_domains; ++b) {
      DomainBound bound;
      bound.a = static_cast<std::uint32_t>(a);
      bound.b = static_cast<std::uint32_t>(b);
      bound.bound = rng.uniform(15.0, 45.0);
      cons.domain_bounds.push_back(bound);
    }
  }
  cons.normalize();
}

/// Attaches per-sink useful-skew arrival windows to a deterministic
/// fraction of the sinks (CONTANGO_WINDOW_FRACTION, default 0.35): mostly
/// one-sided "arrive within W of the earliest sink" caps, with a minority
/// of two-sided windows that also demand a minimum relative arrival.
void apply_useful_skew_windows(Benchmark& bench, std::uint64_t seed) {
  Rng rng(seed ^ 0x77696e646f7773ULL);  // "windows"
  const double fraction = env_double("CONTANGO_WINDOW_FRACTION", 0.35);
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument(
        "CONTANGO_WINDOW_FRACTION must be in [0, 1], got " +
        std::to_string(fraction));
  }
  TimingConstraints& cons = bench.constraints;
  cons = TimingConstraints{};
  cons.sink_windows.assign(bench.sinks.size(), ArrivalWindow{});
  for (std::size_t i = 0; i < bench.sinks.size(); ++i) {
    if (!rng.chance(fraction)) continue;
    ArrivalWindow& w = cons.sink_windows[i];
    if (rng.chance(0.3)) {
      // Two-sided: the sink must lag the earliest arrival by at least lo.
      w.lo = rng.uniform(1.0, 5.0);
      w.hi = w.lo + rng.uniform(10.0, 30.0);
    } else {
      w.hi = rng.uniform(8.0, 30.0);
    }
  }
  cons.normalize();
}

ScenarioRegistry build_builtin() {
  ScenarioRegistry registry;

  registry.add({"uniform",
                "pure uniform sink scatter, moderate obstacles",
                120,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.num_clusters = 0;
                  p.cluster_fraction = 0.0;
                  p.num_obstacles = 18;
                  return generate_ispd_like(p);
                }});

  registry.add({"clustered",
                "90% of sinks in tight clusters, like register banks",
                140,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.num_clusters = 6;
                  p.cluster_fraction = 0.9;
                  p.num_obstacles = 22;
                  return generate_ispd_like(p);
                }});

  registry.add({"ring",
                "sinks on concentric rings around a central macro",
                96,
                [](std::uint64_t seed, int n) {
                  RingGenParams p;
                  p.num_sinks = n;
                  p.seed = seed;
                  return generate_ring(p);
                }});

  registry.add({"obstacle_dense",
                "macro-heavy floorplan: many abutting blockages",
                110,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.num_clusters = 3;
                  p.cluster_fraction = 0.4;
                  p.num_obstacles = 48;
                  p.abut_fraction = 0.4;
                  p.obstacle_min = 400.0;
                  p.obstacle_max = 2200.0;
                  return generate_ispd_like(p);
                }});

  registry.add({"high_fanout",
                "dense sink population on a small die",
                420,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.die_w = 9000.0;
                  p.die_h = 9000.0;
                  p.num_clusters = 3;
                  p.cluster_fraction = 0.5;
                  p.num_obstacles = 14;
                  p.obstacle_max = 1600.0;
                  return generate_ispd_like(p);
                }});

  registry.add({"mixed_cap",
                "sink pin caps spanning 1-90 fF (mixed cell drive classes)",
                120,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.sink_cap_min = 1.0;
                  p.sink_cap_max = 90.0;
                  return generate_ispd_like(p);
                }});

  registry.add({"huge",
                "full-SoC scale: macro-heavy die, row-placed sinks (100k+ capable)",
                2000,
                [](std::uint64_t seed, int n) {
                  HugeGenParams p;
                  p.num_sinks = n;
                  p.seed = seed;
                  return generate_huge(p);
                }});

  registry.add({"multidomain",
                "2-4 clock domains in die quadrants with pairwise "
                "inter-domain skew bounds (CONTANGO_DOMAINS overrides)",
                130,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.num_clusters = 4;
                  p.cluster_fraction = 0.7;
                  p.num_obstacles = 20;
                  Benchmark bench = generate_ispd_like(p);
                  apply_multidomain_constraints(bench, seed);
                  return bench;
                }});

  registry.add({"usefulskew",
                "per-sink useful-skew arrival windows on a fraction of "
                "sinks (CONTANGO_WINDOW_FRACTION overrides)",
                110,
                [](std::uint64_t seed, int n) {
                  IspdGenParams p = ispd_base(seed, n);
                  p.num_clusters = 0;
                  p.cluster_fraction = 0.0;
                  p.num_obstacles = 16;
                  Benchmark bench = generate_ispd_like(p);
                  apply_useful_skew_windows(bench, seed);
                  return bench;
                }});

  registry.add({"mega",
                "reticle-filling die for the 1M-sink tier; contango-pack "
                "gen-mega writes it as .cbench",
                2400,
                [](std::uint64_t seed, int n) {
                  MegaGenParams p;
                  p.num_sinks = n;
                  p.seed = seed;
                  return generate_mega(p);
                }});

  return registry;
}

}  // namespace

void ScenarioRegistry::add(Family family) {
  if (family.name.empty()) {
    throw std::invalid_argument("ScenarioRegistry::add: empty family name");
  }
  if (!family.factory) {
    throw std::invalid_argument("ScenarioRegistry::add: family '" + family.name +
                                "' has no factory");
  }
  if (contains(family.name)) {
    throw std::invalid_argument("ScenarioRegistry::add: duplicate family '" +
                                family.name + "'");
  }
  families_.push_back(std::move(family));
}

bool ScenarioRegistry::contains(const std::string& name) const {
  for (const Family& f : families_) {
    if (f.name == name) return true;
  }
  return false;
}

const ScenarioRegistry::Family& ScenarioRegistry::family(const std::string& name) const {
  for (const Family& f : families_) {
    if (f.name == name) return f;
  }
  throw std::out_of_range("unknown scenario family '" + name + "' (registered: " +
                          join_names(*this) + ")");
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const Family& f : families_) out.push_back(f.name);
  return out;
}

Benchmark ScenarioRegistry::make(const std::string& name, std::uint64_t seed,
                                 int num_sinks) const {
  const Family& f = family(name);
  if (num_sinks < 0) {
    throw std::invalid_argument("ScenarioRegistry::make: negative num_sinks");
  }
  const int sinks = num_sinks == 0 ? f.default_sinks : num_sinks;
  Benchmark bench = f.factory(seed, sinks);
  bench.name = f.name + "_s" + std::to_string(seed);
  if (num_sinks != 0) bench.name += "_n" + std::to_string(num_sinks);
  return bench;
}

std::vector<Benchmark> ScenarioRegistry::make_all(std::uint64_t seed) const {
  std::vector<Benchmark> suite;
  suite.reserve(families_.size());
  for (const Family& f : families_) suite.push_back(make(f.name, seed));
  return suite;
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = build_builtin();
  return registry;
}

Benchmark make_scenario(const std::string& name, std::uint64_t seed, int num_sinks) {
  return ScenarioRegistry::builtin().make(name, seed, num_sinks);
}

std::vector<Benchmark> collect_workloads(const std::string& spec, std::uint64_t seed) {
  return collect_workloads(spec, seed, nullptr);
}

std::vector<Benchmark> collect_workloads(const std::string& spec, std::uint64_t seed,
                                         std::vector<double>* load_seconds) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  std::vector<Benchmark> suite;
  if (load_seconds != nullptr) load_seconds->clear();

  // Records how long acquiring one benchmark took (generator call, text
  // parse or binary load), keeping load_seconds index-aligned with suite.
  const auto timed = [&](auto&& acquire) {
    const auto t0 = std::chrono::steady_clock::now();
    suite.push_back(acquire());
    if (load_seconds != nullptr) {
      load_seconds->push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
  };

  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    std::string element = spec.substr(begin, end - begin);
    begin = end + 1;

    // Trim surrounding whitespace.
    const std::size_t first = element.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const std::size_t last = element.find_last_not_of(" \t");
    element = element.substr(first, last - first + 1);

    // 1. Registered family, optionally "family:num_sinks".  The suffix must
    // be a complete non-negative integer — "ring:1e3" is an error, not a
    // 1-sink run.
    std::string family = element;
    int num_sinks = 0;
    bool malformed_override = false;
    const std::size_t colon = element.rfind(':');
    if (colon != std::string::npos) {
      const int parsed = parse_exact_int(element.substr(colon + 1));
      if (parsed >= 0) {
        num_sinks = parsed;
        family = element.substr(0, colon);
      } else {
        // Remember whether the prefix names a real family: if so and the
        // element is not an on-disk path either, the override itself is
        // the error to report, not "unknown element".
        malformed_override = registry.contains(element.substr(0, colon));
      }
    }
    if (registry.contains(family)) {
      timed([&] { return registry.make(family, seed, num_sinks); });
      continue;
    }

    // 2./3. A .bench/.cbench file or a directory of them.
    std::error_code ec;
    if (std::filesystem::is_directory(element, ec)) {
      const std::vector<std::string> files = list_benchmark_files(element);
      if (files.empty()) {
        throw std::invalid_argument(
            "workload element '" + element +
            "' is a directory with no .bench or .cbench files");
      }
      for (const std::string& path : files) {
        timed([&] { return read_benchmark_file(path); });
      }
      continue;
    }
    if (std::filesystem::is_regular_file(element, ec)) {
      timed([&] { return read_benchmark_file(element); });
      continue;
    }

    if (malformed_override) {
      throw std::invalid_argument(
          "workload element '" + element + "': malformed sink-count override '" +
          element.substr(colon + 1) + "' (expected a non-negative integer, e.g. '" +
          element.substr(0, colon) + ":200')");
    }
    throw std::invalid_argument(
        "workload element '" + element +
        "' is neither a registered scenario family nor an existing "
        ".bench/.cbench file/directory (families: " + join_names(registry) + ")");
  }
  return suite;
}

}  // namespace contango
