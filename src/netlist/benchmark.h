#pragma once

#include <string>
#include <vector>

#include "geom/obstacle_set.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "netlist/constraints.h"
#include "netlist/library.h"

namespace contango {

/// One clock sink: a flip-flop clock pin with its position and pin
/// capacitance.  Sink polarity must be positive (non-inverted) in a legal
/// solution.
struct Sink {
  std::string name;
  Point position;
  Ff cap = 0.0;
};

/// A clock-network-synthesis benchmark instance, modeled on the ISPD'09 CNS
/// contest format: chip outline, clock source, sinks, placement obstacles,
/// technology (wire widths + inverter library), and design limits.
struct Benchmark {
  std::string name;
  Rect die;                ///< chip outline; all routing stays inside
  Point source;            ///< clock entry point (typically on the boundary)
  KOhm source_res = ohms(25.0);  ///< driver resistance of the clock source
  std::vector<Sink> sinks;
  std::vector<Rect> obstacle_rects;  ///< raw blockages (may abut/overlap)
  Technology tech;

  /// Clock domains, inter-domain skew bounds and per-sink useful-skew
  /// windows.  The default block is trivial: the exact legacy single-domain
  /// unbounded model (see constraints.h).
  TimingConstraints constraints;

  /// Obstacle set built once on demand (grouping + contours are O(n log n)
  /// and the benchmark is immutable during synthesis).
  const ObstacleSet& obstacles() const {
    if (!obstacles_built_) {
      obstacles_ = ObstacleSet(obstacle_rects);
      obstacles_built_ = true;
    }
    return obstacles_;
  }

  /// Invalidates the cached obstacle set (used by generators/parsers after
  /// mutating obstacle_rects).
  void invalidate_obstacles() { obstacles_built_ = false; }

  Ff total_sink_cap() const {
    Ff total = 0.0;
    for (const Sink& s : sinks) total += s.cap;
    return total;
  }

 private:
  mutable ObstacleSet obstacles_;
  mutable bool obstacles_built_ = false;
};

/// Basic sanity checks: sinks inside the die, source inside the die,
/// non-empty technology, and every electrical value finite with the right
/// sign: wire r_per_um, supply corners, slew_limit, inverter output_res and
/// rise_fall_ratio > 0; sink caps, wire c_per_um, the other inverter
/// fields, source_res, cap_limit (0 = no limit) and supply_alpha >= 0.
/// Throws std::invalid_argument on violation, naming the benchmark, the
/// field and the value.
void validate(const Benchmark& bench);

}  // namespace contango
