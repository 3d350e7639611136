#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/benchmark.h"

namespace contango {

/// Parameters of the synthetic ISPD'09-style benchmark generator.  Each of
/// the seven suite entries (cns01..cns07) is a fixed parameterization
/// matched in scale to one contest chip (f11, f12, f21, f22, f31, f32,
/// fnb1): die size up to 17x17 mm, 90-330 sinks, rectangular obstacles some
/// of which abut into compound blockages.
struct IspdGenParams {
  std::string name;
  Um die_w = 10000.0;
  Um die_h = 10000.0;
  int num_sinks = 100;
  int num_clusters = 4;       ///< sink clustering (0 = pure uniform scatter)
  double cluster_fraction = 0.6;  ///< fraction of sinks inside clusters
  int num_obstacles = 20;
  Um obstacle_min = 300.0;
  Um obstacle_max = 2500.0;
  double abut_fraction = 0.3;  ///< fraction of obstacles spawned abutting another
  Ff sink_cap_min = 3.0;
  Ff sink_cap_max = 35.0;
  std::uint64_t seed = 1;
};

/// Generates one synthetic CNS benchmark.  Deterministic in the seed.
Benchmark generate_ispd_like(const IspdGenParams& params);

/// The seven-entry suite standing in for the ISPD'09 contest chips.
std::vector<Benchmark> ispd09_suite();

/// Parameter block for one suite entry by index 0..6 (exposed so tests and
/// benches can generate a single entry cheaply).
IspdGenParams ispd09_suite_params(int index);

/// Texas Instruments-style scalability benchmark (paper section V): a
/// 4.2 x 3.0 mm die with a 135K-position sink pool sampled down to
/// `num_sinks`.  Sampling different sizes from the same pool (same seed)
/// mirrors the paper's protocol.
Benchmark generate_ti_like(int num_sinks, std::uint64_t seed = 77);

/// Parameters of the ring-placement generator: sinks arranged on concentric
/// rectangular rings around a central macro blockage, the way registers
/// encircle a hard IP block or memory in a placed SoC.  Stresses the DME
/// merging order and obstacle repair differently from scatter/cluster
/// placements: every merge near the top must route around the core.
struct RingGenParams {
  std::string name = "ring";
  Um die_w = 10000.0;
  Um die_h = 10000.0;
  int num_sinks = 96;
  int num_rings = 4;
  double core_fraction = 0.22;  ///< central macro edge as fraction of min(die w, h)
  double jitter = 0.25;         ///< radial/angular jitter as fraction of ring spacing
  Ff sink_cap_min = 3.0;
  Ff sink_cap_max = 35.0;
  std::uint64_t seed = 1;
};

/// Generates one ring benchmark.  Deterministic in the seed.
Benchmark generate_ring(const RingGenParams& params);

/// Parameters of the huge-scale generator: a full-SoC-sized die with a
/// macro-heavy floorplan and row-based register placement, built
/// procedurally in O(n) so sink counts of 100k+ (up to ~1M) stay cheap to
/// generate.  This family exists to exercise the sub-quadratic geometry
/// engine (interval-tree obstacle queries, kd/grid nearest-neighbour
/// search) well past the ti5000 scale the flat scans topped out at.
struct HugeGenParams {
  std::string name = "huge";
  Um die_w = 16800.0;
  Um die_h = 12000.0;
  int num_sinks = 100000;
  int num_rows = 400;        ///< placement rows; density varies row to row
  int num_obstacles = 150;   ///< hard macros (some spawned abutting)
  double abut_fraction = 0.35;
  Um obstacle_min = 200.0;
  Um obstacle_max = 1000.0;
  Ff sink_cap_min = 3.0;
  Ff sink_cap_max = 20.0;
  std::uint64_t seed = 1;
};

/// Generates one huge-scale benchmark.  Deterministic in the seed.
Benchmark generate_huge(const HugeGenParams& params);

/// Parameters of the mega-scale generator: a reticle-filling die with a
/// denser macro floorplan than `huge`, sized for the 1M-sink tier.  Like
/// `huge` the placement is row-based and O(n).
struct MegaGenParams {
  std::string name = "mega";
  Um die_w = 33600.0;
  Um die_h = 24000.0;
  int num_sinks = 1000000;
  int num_rows = 1200;       ///< placement rows; density varies row to row
  int num_obstacles = 300;   ///< hard macros (some spawned abutting)
  double abut_fraction = 0.35;
  Um obstacle_min = 250.0;
  Um obstacle_max = 1400.0;
  Ff sink_cap_min = 3.0;
  Ff sink_cap_max = 20.0;
  std::uint64_t seed = 1;
};

/// Generates one mega-scale benchmark.  Deterministic in the seed.
Benchmark generate_mega(const MegaGenParams& params);

}  // namespace contango
