#include "netlist/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netlist/io.h"
#include "util/rng.h"

namespace contango {
namespace {

/// Rule-of-thumb rectilinear Steiner tree length for n uniform points in a
/// region of area A; used to size capacitance budgets.
Um steiner_estimate(int n, double area) {
  return 0.68 * std::sqrt(static_cast<double>(n) * area);
}

/// Moves a point strictly inside an obstacle out of its *compound* blockage:
/// first try the nearest point of the compound's contour (nudged outward),
/// then fall back to scanning ring offsets.  Always returns a legal point
/// inside the die or the original point if no legal spot is found nearby.
Point push_out_of_obstacles(Point p, const ObstacleSet& obs, const Rect& die) {
  p = die.clamp(p);
  // Legal with margin: the point and small perturbations of it must all be
  // outside obstacle interiors, so later epsilon-scale numerical noise can
  // never flip a boundary-exact sink to "inside".
  auto robustly_legal = [&](const Point& q) {
    constexpr double kEps = 0.01;
    for (const Point d : {Point{0, 0}, Point{kEps, kEps}, Point{-kEps, kEps},
                          Point{kEps, -kEps}, Point{-kEps, -kEps}}) {
      if (obs.blocks_point(Point{q.x + d.x, q.y + d.y})) return false;
    }
    return true;
  };
  if (robustly_legal(p)) return p;

  const std::size_t compound = obs.compound_containing(p);
  const Point snapped = [&] {
    if (compound == ObstacleSet::npos) return p;
    Point s;
    contour_project(obs.compounds()[compound].contour, p, &s);
    return s;
  }();
  // Nudge off the boundary in the four axis directions.
  for (const Point delta : {Point{1, 0}, Point{-1, 0}, Point{0, 1}, Point{0, -1}}) {
    const Point q = die.clamp(Point{snapped.x + delta.x, snapped.y + delta.y});
    if (robustly_legal(q)) return q;
  }
  // Fallback: expanding ring scan around the snapped point.
  for (double radius = 2.0; radius <= 4096.0; radius *= 2.0) {
    for (const Point delta : {Point{radius, 0}, Point{-radius, 0}, Point{0, radius},
                              Point{0, -radius}, Point{radius, radius},
                              Point{-radius, -radius}, Point{radius, -radius},
                              Point{-radius, radius}}) {
      const Point q = die.clamp(Point{snapped.x + delta.x, snapped.y + delta.y});
      if (robustly_legal(q)) return q;
    }
  }
  return p;
}

Ff capacitance_budget(const Benchmark& bench) {
  const Um wire_est =
      1.7 * steiner_estimate(static_cast<int>(bench.sinks.size()),
                             bench.die.area());
  // Wire + sinks + repeater allowance (one composite buffer per ~600 um),
  // with headroom for detour and balance snaking.
  const Ff est = bench.tech.wires.back().c_per_um * wire_est +
                 bench.total_sink_cap() + 0.14 * wire_est;
  return 1.5 * est;
}

}  // namespace

Benchmark generate_ispd_like(const IspdGenParams& params) {
  Rng rng(params.seed);
  Benchmark bench;
  bench.name = params.name;
  bench.die = Rect{0.0, 0.0, params.die_w, params.die_h};
  bench.source = Point{params.die_w / 2.0, 0.0};
  bench.tech = ispd09_technology();

  // Obstacles first so sinks can be kept legal.  Keep a clear strip around
  // the source so the trunk can leave the boundary.
  const Rect source_clear = Rect{bench.source.x - params.die_w * 0.05, 0.0,
                                 bench.source.x + params.die_w * 0.05,
                                 params.die_h * 0.08};
  for (int i = 0; i < params.num_obstacles; ++i) {
    Rect r;
    const bool abut = !bench.obstacle_rects.empty() && rng.chance(params.abut_fraction);
    const Um w = rng.uniform(params.obstacle_min, params.obstacle_max);
    const Um h = rng.uniform(params.obstacle_min, params.obstacle_max);
    if (abut) {
      // Spawn sharing an edge with a previously placed obstacle to create
      // compound blockages (no buffer may sit between abutting macros).
      const Rect& base = bench.obstacle_rects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bench.obstacle_rects.size()) - 1))];
      const int side = static_cast<int>(rng.uniform_int(0, 3));
      switch (side) {
        case 0: r = Rect{base.xhi, base.ylo, base.xhi + w, base.ylo + h}; break;
        case 1: r = Rect{base.xlo - w, base.ylo, base.xlo, base.ylo + h}; break;
        case 2: r = Rect{base.xlo, base.yhi, base.xlo + w, base.yhi + h}; break;
        default: r = Rect{base.xlo, base.ylo - h, base.xlo + w, base.ylo}; break;
      }
    } else {
      const Um x = rng.uniform(0.0, std::max(1.0, params.die_w - w));
      const Um y = rng.uniform(0.0, std::max(1.0, params.die_h - h));
      r = Rect{x, y, x + w, y + h};
    }
    r = r.intersection(bench.die);
    if (!r.valid() || r.width() < params.obstacle_min / 2.0 ||
        r.height() < params.obstacle_min / 2.0) {
      continue;
    }
    if (r.intersects(source_clear)) continue;
    bench.obstacle_rects.push_back(r);
  }

  // Sinks: a cluster component plus uniform scatter.
  const ObstacleSet legalizer(bench.obstacle_rects);
  std::vector<Point> centers;
  for (int c = 0; c < params.num_clusters; ++c) {
    centers.push_back(Point{rng.uniform(params.die_w * 0.1, params.die_w * 0.9),
                            rng.uniform(params.die_h * 0.1, params.die_h * 0.9)});
  }
  const double spread = std::min(params.die_w, params.die_h) / 12.0;
  for (int i = 0; i < params.num_sinks; ++i) {
    Point p;
    if (!centers.empty() && rng.chance(params.cluster_fraction)) {
      const Point& c = centers[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(centers.size()) - 1))];
      p = Point{rng.gaussian(c.x, spread), rng.gaussian(c.y, spread)};
    } else {
      p = Point{rng.uniform(0.0, params.die_w), rng.uniform(0.0, params.die_h)};
    }
    p = push_out_of_obstacles(p, legalizer, bench.die);
    Sink s;
    s.name = "s" + std::to_string(i);
    s.position = p;
    s.cap = rng.uniform(params.sink_cap_min, params.sink_cap_max);
    bench.sinks.push_back(s);
  }

  bench.tech.cap_limit = capacitance_budget(bench);
  validate(bench);
  return bench;
}

IspdGenParams ispd09_suite_params(int index) {
  // Scale-matched stand-ins for f11, f12, f21, f22, f31, f32, fnb1.
  static const IspdGenParams kSuite[7] = {
      {"cns01", 13000.0, 13000.0, 121, 5, 0.60, 26, 400.0, 2000.0, 0.15, 3.0, 35.0, 101},
      {"cns02", 13000.0, 13000.0, 117, 4, 0.55, 24, 400.0, 2000.0, 0.15, 3.0, 35.0, 102},
      {"cns03", 14000.0, 14000.0, 117, 6, 0.65, 28, 500.0, 2200.0, 0.18, 3.0, 35.0, 103},
      {"cns04", 11000.0, 11000.0, 91, 4, 0.55, 20, 400.0, 1800.0, 0.15, 3.0, 35.0, 104},
      {"cns05", 17000.0, 17000.0, 273, 8, 0.65, 38, 500.0, 2400.0, 0.18, 3.0, 35.0, 105},
      {"cns06", 17000.0, 17000.0, 190, 6, 0.60, 34, 500.0, 2400.0, 0.18, 3.0, 35.0, 106},
      {"cns07", 9000.0, 9000.0, 330, 9, 0.70, 16, 300.0, 1500.0, 0.12, 3.0, 35.0, 107},
  };
  if (index < 0 || index >= 7) {
    throw std::out_of_range("ispd09_suite_params: index must be 0..6");
  }
  return kSuite[index];
}

std::vector<Benchmark> ispd09_suite() {
  std::vector<Benchmark> suite;
  suite.reserve(7);
  for (int i = 0; i < 7; ++i) suite.push_back(generate_ispd_like(ispd09_suite_params(i)));
  return suite;
}

Benchmark generate_ring(const RingGenParams& params) {
  if (params.num_sinks < 1) throw std::invalid_argument("generate_ring: num_sinks");
  if (params.num_rings < 1) throw std::invalid_argument("generate_ring: num_rings");

  Rng rng(params.seed);
  Benchmark bench;
  bench.name = params.name;
  bench.die = Rect{0.0, 0.0, params.die_w, params.die_h};
  bench.source = Point{params.die_w / 2.0, 0.0};
  bench.tech = ispd09_technology();

  // Central macro the rings wrap around.
  const double min_dim = std::min(params.die_w, params.die_h);
  const Point center{params.die_w / 2.0, params.die_h / 2.0};
  const double core_half = params.core_fraction * min_dim / 2.0;
  bench.obstacle_rects.push_back(Rect{center.x - core_half, center.y - core_half,
                                      center.x + core_half, center.y + core_half});

  // Ring radii span the annulus between the core and the die margin.
  const double r_inner = core_half * 1.3;
  const double r_outer = 0.45 * min_dim;
  const double spacing = params.num_rings > 1
                             ? (r_outer - r_inner) / (params.num_rings - 1)
                             : 0.0;

  // A "ring" is the perimeter of a square of half-extent `radius` around
  // the core — registers wrap rectangular macros along rectangular
  // contours, and the perimeter walk needs no trig (bit-portable, see
  // util/rng.h).
  auto perimeter_point = [](const Point& c, double radius, double t) {
    const double perimeter = 8.0 * radius;
    double d = (t - std::floor(t)) * perimeter;
    if (d < 2.0 * radius) return Point{c.x - radius + d, c.y - radius};
    d -= 2.0 * radius;
    if (d < 2.0 * radius) return Point{c.x + radius, c.y - radius + d};
    d -= 2.0 * radius;
    if (d < 2.0 * radius) return Point{c.x + radius - d, c.y + radius};
    d -= 2.0 * radius;
    return Point{c.x - radius, c.y + radius - d};
  };

  const ObstacleSet legalizer(bench.obstacle_rects);
  for (int i = 0; i < params.num_sinks; ++i) {
    // Round-robin across rings, evenly spaced along each ring's perimeter.
    const int ring = i % params.num_rings;
    const int on_ring = (params.num_sinks + params.num_rings - 1 - ring) / params.num_rings;
    const int slot = i / params.num_rings;
    const double t = (slot + params.jitter * rng.uniform(-0.5, 0.5)) /
                     std::max(1, on_ring);
    const double radius =
        r_inner + ring * spacing + params.jitter * spacing * rng.uniform(-0.5, 0.5);
    Point p = perimeter_point(center, radius, t);
    p = push_out_of_obstacles(p, legalizer, bench.die);
    Sink s;
    s.name = "s" + std::to_string(i);
    s.position = p;
    s.cap = rng.uniform(params.sink_cap_min, params.sink_cap_max);
    bench.sinks.push_back(s);
  }

  bench.tech.cap_limit = capacitance_budget(bench);
  validate(bench);
  return bench;
}

Benchmark generate_ti_like(int num_sinks, std::uint64_t seed) {
  if (num_sinks < 1) throw std::invalid_argument("generate_ti_like: num_sinks");
  constexpr int kPoolSize = 135000;  // paper: 135K sink locations identified
  constexpr Um kDieW = 4200.0, kDieH = 3000.0;

  Rng rng(seed);
  Benchmark bench;
  bench.name = "ti" + std::to_string(num_sinks);
  bench.die = Rect{0.0, 0.0, kDieW, kDieH};
  bench.source = Point{kDieW / 2.0, 0.0};
  bench.tech = ispd09_technology();

  // The full pool follows a row-based placement pattern with clustered
  // density, like flip-flops in a placed SoC block.
  std::vector<Point> pool;
  pool.reserve(kPoolSize);
  const int rows = 300;
  const double row_pitch = kDieH / rows;
  std::vector<double> row_density(rows);
  for (int r = 0; r < rows; ++r) {
    row_density[r] = 0.3 + 0.7 * std::abs(std::sin(r * 0.13) * std::cos(r * 0.029));
  }
  double density_total = 0.0;
  for (double d : row_density) density_total += d;
  for (int r = 0; r < rows; ++r) {
    const int in_row = static_cast<int>(std::round(kPoolSize * row_density[r] / density_total));
    for (int k = 0; k < in_row && static_cast<int>(pool.size()) < kPoolSize; ++k) {
      pool.push_back(Point{rng.uniform(0.0, kDieW), (r + rng.uniform(0.2, 0.8)) * row_pitch});
    }
  }
  while (static_cast<int>(pool.size()) < kPoolSize) {
    pool.push_back(Point{rng.uniform(0.0, kDieW), rng.uniform(0.0, kDieH)});
  }

  // Random sample without replacement (partial Fisher-Yates).
  const int n = std::min(num_sinks, kPoolSize);
  for (int i = 0; i < n; ++i) {
    const auto j = rng.uniform_int(i, kPoolSize - 1);
    std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
    Sink s;
    s.name = "s" + std::to_string(i);
    s.position = pool[static_cast<std::size_t>(i)];
    s.cap = rng.uniform(3.0, 20.0);
    bench.sinks.push_back(s);
  }

  bench.tech.cap_limit = capacitance_budget(bench);
  validate(bench);
  return bench;
}

Benchmark generate_huge(const HugeGenParams& params) {
  if (params.num_sinks < 1) {
    throw std::invalid_argument("generate_huge: num_sinks");
  }
  if (params.num_rows < 1) throw std::invalid_argument("generate_huge: num_rows");

  Rng rng(params.seed);
  Benchmark bench;
  bench.name = params.name;
  bench.die = Rect{0.0, 0.0, params.die_w, params.die_h};
  bench.source = Point{params.die_w / 2.0, 0.0};
  bench.tech = ispd09_technology();

  // Macro-heavy floorplan, with a clear strip around the source.
  const Rect source_clear = Rect{bench.source.x - params.die_w * 0.04, 0.0,
                                 bench.source.x + params.die_w * 0.04,
                                 params.die_h * 0.06};
  for (int i = 0; i < params.num_obstacles; ++i) {
    Rect r;
    const bool abut = !bench.obstacle_rects.empty() && rng.chance(params.abut_fraction);
    const Um w = rng.uniform(params.obstacle_min, params.obstacle_max);
    const Um h = rng.uniform(params.obstacle_min, params.obstacle_max);
    if (abut) {
      const Rect& base = bench.obstacle_rects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bench.obstacle_rects.size()) - 1))];
      const int side = static_cast<int>(rng.uniform_int(0, 3));
      switch (side) {
        case 0: r = Rect{base.xhi, base.ylo, base.xhi + w, base.ylo + h}; break;
        case 1: r = Rect{base.xlo - w, base.ylo, base.xlo, base.ylo + h}; break;
        case 2: r = Rect{base.xlo, base.yhi, base.xlo + w, base.yhi + h}; break;
        default: r = Rect{base.xlo, base.ylo - h, base.xlo + w, base.ylo}; break;
      }
    } else {
      const Um x = rng.uniform(0.0, std::max(1.0, params.die_w - w));
      const Um y = rng.uniform(0.0, std::max(1.0, params.die_h - h));
      r = Rect{x, y, x + w, y + h};
    }
    r = r.intersection(bench.die);
    if (!r.valid() || r.width() < params.obstacle_min / 2.0 ||
        r.height() < params.obstacle_min / 2.0) {
      continue;
    }
    if (r.intersects(source_clear)) continue;
    bench.obstacle_rects.push_back(r);
  }

  // Row-based register placement, O(num_sinks): row densities follow a
  // smooth clustered profile (like the TI pool) but sinks are emitted
  // directly instead of sampling a materialized pool, so 1M sinks cost 1M
  // draws.  Legalization rides on the ObstacleSet spatial index, keeping
  // generation sub-quadratic too.
  const int rows = params.num_rows;
  const double row_pitch = params.die_h / rows;
  std::vector<double> row_density(static_cast<std::size_t>(rows));
  double density_total = 0.0;
  for (int r = 0; r < rows; ++r) {
    row_density[static_cast<std::size_t>(r)] =
        0.25 + 0.75 * std::abs(std::sin(r * 0.17) * std::cos(r * 0.041));
    density_total += row_density[static_cast<std::size_t>(r)];
  }

  const ObstacleSet legalizer(bench.obstacle_rects);
  bench.sinks.reserve(static_cast<std::size_t>(params.num_sinks));
  int emitted = 0;
  for (int r = 0; r < rows && emitted < params.num_sinks; ++r) {
    int in_row = static_cast<int>(
        std::round(params.num_sinks * row_density[static_cast<std::size_t>(r)] /
                   density_total));
    if (r == rows - 1) in_row = params.num_sinks - emitted;  // absorb rounding
    for (int k = 0; k < in_row && emitted < params.num_sinks; ++k) {
      Point p{rng.uniform(0.0, params.die_w),
              (r + rng.uniform(0.15, 0.85)) * row_pitch};
      p = push_out_of_obstacles(p, legalizer, bench.die);
      Sink s;
      s.name = "s" + std::to_string(emitted);
      s.position = p;
      s.cap = rng.uniform(params.sink_cap_min, params.sink_cap_max);
      bench.sinks.push_back(s);
      ++emitted;
    }
  }
  while (emitted < params.num_sinks) {  // density profile under-produced
    Point p{rng.uniform(0.0, params.die_w), rng.uniform(0.0, params.die_h)};
    p = push_out_of_obstacles(p, legalizer, bench.die);
    Sink s;
    s.name = "s" + std::to_string(emitted);
    s.position = p;
    s.cap = rng.uniform(params.sink_cap_min, params.sink_cap_max);
    bench.sinks.push_back(s);
    ++emitted;
  }

  bench.tech.cap_limit = capacitance_budget(bench);
  validate(bench);
  return bench;
}

Benchmark generate_mega(const MegaGenParams& params) {
  if (params.num_sinks < 1) {
    throw std::invalid_argument("generate_mega: num_sinks");
  }
  if (params.num_rows < 1) throw std::invalid_argument("generate_mega: num_rows");

  Rng rng(params.seed);
  const Rect die{0.0, 0.0, params.die_w, params.die_h};
  const Point source{params.die_w / 2.0, 0.0};
  Benchmark bench;
  bench.name = params.name;
  bench.die = die;
  bench.source = source;
  bench.tech = ispd09_technology();
  std::vector<Rect>& obstacle_rects = bench.obstacle_rects;

  // Macro-heavy floorplan with a clear strip around the source, like the
  // huge family but on a reticle-filling die.
  const Rect source_clear = Rect{source.x - params.die_w * 0.04, 0.0,
                                 source.x + params.die_w * 0.04,
                                 params.die_h * 0.06};
  for (int i = 0; i < params.num_obstacles; ++i) {
    Rect r;
    const bool abut = !obstacle_rects.empty() && rng.chance(params.abut_fraction);
    const Um w = rng.uniform(params.obstacle_min, params.obstacle_max);
    const Um h = rng.uniform(params.obstacle_min, params.obstacle_max);
    if (abut) {
      const Rect& base = obstacle_rects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(obstacle_rects.size()) - 1))];
      const int side = static_cast<int>(rng.uniform_int(0, 3));
      switch (side) {
        case 0: r = Rect{base.xhi, base.ylo, base.xhi + w, base.ylo + h}; break;
        case 1: r = Rect{base.xlo - w, base.ylo, base.xlo, base.ylo + h}; break;
        case 2: r = Rect{base.xlo, base.yhi, base.xlo + w, base.yhi + h}; break;
        default: r = Rect{base.xlo, base.ylo - h, base.xlo + w, base.ylo}; break;
      }
    } else {
      const Um x = rng.uniform(0.0, std::max(1.0, params.die_w - w));
      const Um y = rng.uniform(0.0, std::max(1.0, params.die_h - h));
      r = Rect{x, y, x + w, y + h};
    }
    r = r.intersection(die);
    if (!r.valid() || r.width() < params.obstacle_min / 2.0 ||
        r.height() < params.obstacle_min / 2.0) {
      continue;
    }
    if (r.intersects(source_clear)) continue;
    obstacle_rects.push_back(r);
  }

  // Row-based register placement, O(num_sinks).
  const int rows = params.num_rows;
  const double row_pitch = params.die_h / rows;
  std::vector<double> row_density(static_cast<std::size_t>(rows));
  double density_total = 0.0;
  for (int r = 0; r < rows; ++r) {
    row_density[static_cast<std::size_t>(r)] =
        0.25 + 0.75 * std::abs(std::sin(r * 0.23) * std::cos(r * 0.037));
    density_total += row_density[static_cast<std::size_t>(r)];
  }

  const ObstacleSet legalizer(obstacle_rects);
  bench.sinks.reserve(static_cast<std::size_t>(params.num_sinks));
  int emitted = 0;
  auto emit_one = [&](Point p) {
    Sink s;
    s.name = "s" + std::to_string(emitted);
    s.position = push_out_of_obstacles(p, legalizer, die);
    s.cap = rng.uniform(params.sink_cap_min, params.sink_cap_max);
    bench.sinks.push_back(std::move(s));
    ++emitted;
  };
  for (int r = 0; r < rows && emitted < params.num_sinks; ++r) {
    int in_row = static_cast<int>(
        std::round(params.num_sinks * row_density[static_cast<std::size_t>(r)] /
                   density_total));
    if (r == rows - 1) in_row = params.num_sinks - emitted;  // absorb rounding
    for (int k = 0; k < in_row && emitted < params.num_sinks; ++k) {
      emit_one(Point{rng.uniform(0.0, params.die_w),
                     (r + rng.uniform(0.15, 0.85)) * row_pitch});
    }
  }
  while (emitted < params.num_sinks) {  // density profile under-produced
    emit_one(Point{rng.uniform(0.0, params.die_w),
                   rng.uniform(0.0, params.die_h)});
  }

  bench.tech.cap_limit = capacitance_budget(bench);
  validate(bench);
  return bench;
}

}  // namespace contango
