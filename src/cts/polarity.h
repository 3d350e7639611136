#pragma once

#include "netlist/benchmark.h"
#include "rctree/clocktree.h"

namespace contango {

/// Outcome of one polarity-correction pass.
struct PolarityFix {
  int inverted_sinks = 0;   ///< sinks with wrong polarity before the fix
  int added_inverters = 0;  ///< inverters inserted by the correction
};

/// Counts sinks whose clock edge is inverted (odd number of inverting
/// buffers on the root-to-sink path).
int count_inverted_sinks(const ClockTree& tree);

/// Default distance (um) a corrective inverter lands above its marked node.
inline constexpr Um kPolarityOffsetUm = 10.0;

/// Provably-minimal sink-polarity correction (paper section IV-D,
/// Proposition 2): traverse the tree bottom-up and mark every node whose
/// downstream sinks all share one polarity while its parent's do not; an
/// inverter is inserted on the edge above each marked node whose (uniform)
/// polarity is wrong.  Runs in O(n), corrects every inverted sink, and adds
/// the minimum number of inverters among all solutions that place at most
/// one corrective inverter on any root-to-sink path.
///
/// `inverter` is the cell used for correction (typically the smallest
/// library inverter -- corrective inverters sit on low-load paths);
/// `offset_um` is how far above the marked node the inverter lands.
PolarityFix correct_polarity(ClockTree& tree, const Benchmark& bench,
                             const CompositeBuffer& inverter,
                             Um offset_um = kPolarityOffsetUm);

}  // namespace contango
