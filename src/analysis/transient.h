#pragma once

#include <vector>

#include "rctree/extract.h"

namespace contango {

/// Timing measured at one tap of a stage by waveform analysis.
struct TapTiming {
  Ps delay = 0.0;  ///< driver-input 50% crossing to tap 50% crossing
  Ps slew = 0.0;   ///< 10%-90% transition time at the tap
};

/// Numerical options of the transient engine.
struct TransientOptions {
  /// Timestep.  The nominal step is
  ///   h0 = clamp(min(tau_char / time_step_div, ramp / 4), min_step, max_step)
  /// where tau_char is the stage's dominant time constant estimate and ramp
  /// the driver's source ramp.  The step taken is h0 shortened so that a
  /// whole number of steps spans the ramp, h = ramp / ceil(ramp / h0), on a
  /// grid that starts when the ramp does; a ramp shorter than min_step is
  /// one step of h0.  Crossings come from a cubic Hermite fit of each step.
  /// 32 is the coarsest divisor at which the stock flows' final trees stay
  /// within 0.111 / 0.0107 / 0.0109 ps latency / skew / CLR error of a
  /// divisor-640 oracle (test_transient_accuracy; docs/ARCHITECTURE.md,
  /// "Step grid, crossings and accuracy", has the table).
  double time_step_div = 32.0;
  Ps min_step = 0.02;
  Ps max_step = 2.0;

  /// Driver waveform model constants (see TransientSimulator).
  double slew_to_delay = 0.12;  ///< extra driver delay per ps of input slew
  double slew_feedthrough = 0.5;  ///< source ramp lengthening per ps input slew
  Ps ramp_base = 2.0;             ///< minimum source ramp duration
};

/// Bound on the kernel's 10-90% slew error at the default step against a
/// divisor-640 oracle, held on the ten stock final trees by
/// test_transient_accuracy (the worst measured is 0.035 ps).  A legal
/// result whose worst slew is within it of the limit is reported as slew
/// marginal (EvalResult::slew_marginal).
inline constexpr Ps kSlewErrorBound = 0.05;

/// One right-hand side of a batched stage simulation: the effective driver
/// view plus the input slew of one (corner x transition) combination — or
/// of one Monte-Carlo trial's combination.
struct BatchDrive {
  KOhm r_drv = 0.0;
  Ps intrinsic = 0.0;
  Ps input_slew = 0.0;
};

/// Reusable workspace of the transient kernel, grown on demand and recycled
/// across stages, lane groups and trials so the hot loop never allocates.
/// Each thread needs its own instance.
///
/// The kernel integrates a group of L drives (L = 4, 2 or 1) as
/// interleaved lanes.  Per-node lane arrays are node-major — lane l of node
/// i lives at `[i * L + l]` — so one tree sweep updates every lane of a
/// node together as one L-wide vector.  Per-tap thresholds are tap-major
/// (`[k * L + l]`), so one vector compare tests every lane of a tap; the
/// crossings found are lane-major (`[l * num_taps + k]`).
struct TransientScratch {
  std::vector<double> g;       ///< conductance to parent (shared per stage)
  std::vector<double> g_half;  ///< g / 2, hoisted out of the step loop
  std::vector<int> parent;     ///< parent index per node (shared per stage)
  std::vector<double> cdown;   ///< Elmore sweep: downstream cap per node
  std::vector<double> tau;     ///< Elmore sweep: tau per node
  /// A maximal run of nodes [start, next run's start) in which every node
  /// but the first is the child of the node before it.  The sweeps carry
  /// the running node's value in a register along a run; only a run's
  /// first node reaches its parent (`head_parent`, -1 for the root's run)
  /// through memory.  The runs of a stage end with a sentinel run that
  /// starts at the node count.
  struct ChainRun {
    int start = 0;
    int head_parent = -1;
  };
  std::vector<ChainRun> runs;
  // Per-node lane arrays (node-major).
  std::vector<double> cap_h;  ///< C/h, hoisted out of the step loop
  std::vector<double> adiag;  ///< factorization: pivots
  std::vector<double> mult;   ///< factorization: elimination multipliers
  std::vector<double> rhs;    ///< right-hand side of the step
  /// Integration state v and its G v, double-buffered: a step reads one
  /// buffer and writes the other, and the two swap roles after the step,
  /// so the crossing checks read the step's start and end values in place.
  std::vector<double> v[2], gv[2];
  // Per-tap lane arrays.
  /// Each tap's lowest threshold not crossed yet, tap-major.  A lane that
  /// is done with the tap, a padded lane and a lane past its stop time hold
  /// NaN, which no voltage compares at or above.
  std::vector<double> next_th;
  /// A tap some lane still has to cross: its node and its index k.  The
  /// live records are packed at the front; a record leaves once every lane
  /// holds NaN in it.
  struct TapRecord {
    std::size_t node = 0;
    std::size_t tap = 0;
  };
  std::vector<TapRecord> live_taps;
  struct Crossings {
    double t10 = -1.0, t50 = -1.0, t90 = -1.0;
  };
  std::vector<Crossings> cross;  ///< lane-major
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
/// Stage as extracted, hoists everything drive-independent — the
/// conductance and parent arrays (copied into the scratch, so the step
/// loops walk contiguous arrays), the chain runs the sweeps carry values
/// along, the Elmore sweep, the worst tap tau — out of the per-drive work,
/// and then integrates the drives in groups of up to four interleaved
/// lanes over the same cached stage data.  Each lane keeps its own
/// timestep, clock and stop time, starts its clock when its driver ramp
/// starts (every voltage is exactly 0 before), and performs the one-drive
/// integrator's operations in their order, so a row does not depend on
/// which drives share its group.  A one-stage caller
/// passes a batch of one.  The Elmore sweep is always the kernel's own,
/// one O(nodes) pass per call: it only picks each lane's timestep and stop
/// time, so no caller keeps sweeps between calls.
///
/// The lane integrator is compiled twice, for the baseline ISA and with
/// AVX2 enabled, and simulate_stage_batch() runs the AVX2 clone when the CPU
/// has it.  Both clones perform the same element-wise IEEE operations (no
/// FMA), so they write the same bits.
class TransientSimulator {
 public:
  explicit TransientSimulator(TransientOptions options = {})
      : options_(options) {}

  /// Batched integrator core: simulates `stage` once per entry of
  /// `drives[0..count)`, writing `out[b * stage.taps.size() + k]` for drive
  /// b, tap k (the caller provides `count * stage.taps.size()` slots).  The
  /// stage's conductances and Elmore sweep are computed once and shared;
  /// drives run as interleaved lanes in groups of 4 (three drives pad one
  /// lane), 2 or 1, and each lane's timestep, factorization and trapezoidal
  /// integration run exactly the one-drive arithmetic, so every row is
  /// bit-identical to a batch of one with the same drive.
  void simulate_stage_batch(const Stage& stage,
                            const BatchDrive* drives, std::size_t count,
                            TapTiming* out, TransientScratch& scratch) const;

  const TransientOptions& options() const { return options_; }

 private:
  TransientOptions options_;
};

namespace detail {

/// The instruction-set clones of the lane integrator.  Production code
/// never names one; tests do, to hold each clone to the oracle.
enum class KernelIsa { kBaseline, kAvx2 };

/// Whether this build has `isa`'s clone and the CPU can run it.
bool kernel_isa_supported(KernelIsa isa);

/// An Elmore sweep (tau per RC node, total cap) handed to the kernel in
/// place of its own.  A true sweep never lets a lane reach its stop time,
/// so tests pass an understated one to drive lanes into the stop guard.
struct ElmoreOverride {
  const Ps* tau = nullptr;
  Ff total_cap = 0.0;
};

/// simulate_stage_batch() on the `isa` clone, with the kernel's Elmore
/// sweep replaced by `elmore` when given; throws std::invalid_argument
/// when the clone is not supported.
void simulate_stage_batch_on(KernelIsa isa, const TransientSimulator& sim,
                             const Stage& stage,
                             const BatchDrive* drives, std::size_t count,
                             TapTiming* out, TransientScratch& scratch,
                             const ElmoreOverride* elmore = nullptr);

}  // namespace detail

}  // namespace contango
