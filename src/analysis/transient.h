#pragma once

#include <vector>

#include "rctree/extract.h"
#include "rctree/soa.h"

namespace contango {

/// Timing measured at one tap of a stage by waveform analysis.
struct TapTiming {
  Ps delay = 0.0;  ///< driver-input 50% crossing to tap 50% crossing
  Ps slew = 0.0;   ///< 10%-90% transition time at the tap
};

/// Numerical options of the transient engine.
struct TransientOptions {
  /// Timestep = clamp(tau_char / time_step_div, min_step, max_step) where
  /// tau_char is the stage's dominant time constant estimate.
  double time_step_div = 80.0;
  Ps min_step = 0.02;
  Ps max_step = 2.0;

  /// Driver waveform model constants (see TransientSimulator).
  double slew_to_delay = 0.12;  ///< extra driver delay per ps of input slew
  double slew_feedthrough = 0.5;  ///< source ramp lengthening per ps input slew
  Ps ramp_base = 2.0;             ///< minimum source ramp duration
};

/// One right-hand side of a batched stage simulation: the effective driver
/// view plus the input slew of one (corner x transition) combination — or
/// of one Monte-Carlo trial's combination.
struct BatchDrive {
  KOhm r_drv = 0.0;
  Ps intrinsic = 0.0;
  Ps input_slew = 0.0;
};

/// Borrowed Elmore sweep of a stage (tau per RC node + total cap), e.g. an
/// ElmoreCache entry; lets the batch kernel skip its in-kernel sweep.
struct ElmoreView {
  const Ps* tau = nullptr;
  Ff total_cap = 0.0;
};

/// Reusable workspace of the transient kernel, grown on demand and recycled
/// across stages, lane groups and trials so the hot loop never allocates.
/// Each thread needs its own instance.
///
/// The kernel integrates a group of L drives (L = 4, 2 or 1) as
/// interleaved lanes.  Per-node lane arrays are node-major — lane l of node
/// i lives at `[i * L + l]` — so one tree sweep updates every lane of a
/// node together; per-tap lane arrays are lane-major (`[l * num_taps + k]`).
struct TransientScratch {
  std::vector<double> g;      ///< conductance to parent (shared per stage)
  std::vector<double> cdown;  ///< in-kernel Elmore sweep (when not borrowed)
  std::vector<double> tau;
  // Per-node lane arrays (node-major).
  std::vector<double> cap_h;  ///< C/h, hoisted out of the step loop
  std::vector<double> adiag;  ///< factorization: pivots
  std::vector<double> mult;   ///< factorization: elimination multipliers
  std::vector<double> v;      ///< integration state
  std::vector<double> rhs;    ///< right-hand side of the step
  std::vector<double> gv;     ///< G v of the current state
  // Per-tap lane arrays (lane-major).
  std::vector<double> tap_prev;
  struct Crossings {
    double t10 = -1.0, t50 = -1.0, t90 = -1.0;
  };
  std::vector<Crossings> cross;
};

/// SPICE-substitute engine: trapezoidal integration of each stage's RC tree
/// with an O(n) sparse tree factorization per step.
///
/// Driver model: a Thevenin source behind the composite buffer's output
/// resistance.  After the driver input crosses 50% (stage-local t = 0) the
/// source waits the intrinsic delay plus a slew-dependent penalty, then
/// ramps linearly across the supply over a duration that grows with input
/// slew.  Output polarity, supply corner and rise/fall asymmetry enter only
/// through the effective driver resistance and intrinsic delay, which the
/// caller computes; the RC network is linear, so rising and falling
/// responses are mirrors and we always integrate a normalized 0 -> 1 swing.
///
/// This reproduces the properties Contango's optimizations rely on:
/// resistive shielding in long wires, slew propagation through stages, and
/// the impact of slew on delay — the effects the paper lists as missing
/// from closed-form models (section III-A).
///
/// The engine has one integrator core, simulate_stage_batch(): it reads the
/// stage through a SoA view, hoists everything drive-independent — the
/// conductance array, the Elmore sweep, the worst tap tau — out of the
/// per-drive work, and then integrates the drives in groups of up to four
/// interleaved lanes over the same cached stage data.  Each lane keeps its
/// own timestep, clock and stop time, skips the idle steps before its
/// driver ramp starts (they leave every voltage at exactly 0), and performs
/// the one-drive integrator's operations in their original order, so a row
/// does not depend on which drives share its group.  A one-stage caller
/// passes a batch of one.
class TransientSimulator {
 public:
  explicit TransientSimulator(TransientOptions options = {})
      : options_(options) {}

  /// Batched integrator core: simulates `stage` once per entry of
  /// `drives[0..count)`, writing `out[b * stage.num_taps + k]` for drive b,
  /// tap k (the caller provides `count * stage.num_taps` slots).  The
  /// stage's conductances and Elmore sweep are computed once and shared;
  /// drives run as interleaved lanes in groups of 4 (three drives pad one
  /// lane), 2 or 1, and each lane's timestep, factorization and trapezoidal
  /// integration run exactly the one-drive arithmetic, so every row is
  /// bit-identical to a batch of one with the same drive.
  ///
  /// `elmore` optionally borrows a prebuilt sweep (ElmoreCache entry built
  /// from the same stage contents); null computes it in-kernel.
  void simulate_stage_batch(const NetlistSoa::View& stage,
                            const BatchDrive* drives, std::size_t count,
                            TapTiming* out, TransientScratch& scratch,
                            const ElmoreView* elmore = nullptr) const;

  const TransientOptions& options() const { return options_; }

 private:
  TransientOptions options_;
};

}  // namespace contango
