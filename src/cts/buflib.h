#pragma once

#include <vector>

#include "netlist/library.h"

namespace contango {

/// Composite inverter/buffer analysis (paper section IV-B).
///
/// Parallel composition of k copies of a library inverter yields output
/// resistance R/k and input/output capacitance k*C.  Among all (cell, k)
/// pairs some are dominated: the paper's Table I observation is that eight
/// parallel small ISPD'09 inverters beat one large inverter on resistance
/// *and* both capacitances, so the large cell never needs to be used.

/// True when composite `a` is at least as good as `b` on every electrical
/// axis (lower-or-equal resistance and capacitances) and strictly better on
/// at least one.
bool dominates(const CompositeElectrical& a, const CompositeElectrical& b);

/// All Pareto-optimal single-cell composites with count in [1, max_count].
/// Built with an incremental dominance filter (the dynamic program the
/// paper sketches, specialized to single-cell parallel composition).
/// Sorted by decreasing output resistance (weakest first).
std::vector<CompositeBuffer> nondominated_composites(const Technology& tech,
                                                     int max_count);

/// The basic repeater unit of the flow: the cheapest composite that is at
/// least as strong (output resistance no larger) than the strongest single
/// library cell.  For the ISPD'09 library this selects 8x small.
CompositeBuffer best_unit_composite(const Technology& tech, int max_count = 64);

/// The single library cell with the smallest input capacitance (the first
/// one on a tie): the polarity-correcting inverter.
CompositeBuffer smallest_inverter(const Technology& tech);

/// Strength ladder used during buffer insertion: unit, 2x unit, 3x unit...
/// (the paper's "batches of 16x, 24x, etc.").
std::vector<CompositeBuffer> composite_ladder(const CompositeBuffer& unit,
                                              int max_multiple);

/// Largest load capacitance the composite can drive without violating the
/// slew limit, under the worst corner (lowest supply) and worst transition,
/// with a safety margin.  Derived from the single-pole slew model
/// slew ~ ln9 * R_eff * C_load.
Ff slew_free_cap(const Technology& tech, const CompositeBuffer& buffer,
                 double margin = 0.85);

}  // namespace contango
