// The transient kernel against its oracle: every row simulate_stage_batch()
// writes must equal, byte for byte, the row of the one-drive-at-a-time
// integrator in transient_reference.h.  The kernel integrates drives as
// interleaved vector lanes (groups of 4, 2 or 1, three drives padding a
// lane), starts each lane's clock at its own driver delay t0 on a grid
// aligned to its ramp, carries values in registers along runs of
// parent == i - 1 links, and checks all lanes of a tap against per-lane
// thresholds (NaN where a lane no longer looks) in one compare; these
// tests drive every width, padded lanes, the lane-divergence cases (one
// lane starting thousands of steps late, nominal steps clamped at either
// bound, one lane timing out while another finishes early or while others
// still wait for the same taps), the grid's edge cases (t0 = 0, a ramp
// shorter than a step, a tap on the driver node), the sweeps' topologies
// (a pure chain, a star, combs, a driver node with several children) and
// the tap-scan edge cases (many taps, all three thresholds crossed in one
// step, taps pending at the stop time, no taps).  Every case runs on each
// instruction-set clone of the kernel this CPU supports: on an AVX2 host
// these tests are what still exercise the baseline clone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/elmore.h"
#include "analysis/transient.h"
#include "rctree/extract.h"
#include "transient_reference.h"
#include "util/rng.h"

namespace contango {
namespace {

/// A random RC tree (parent[i] < i, the extraction invariant) with taps on
/// any node, the driver node included, and possibly sharing a node.
Stage random_stage(Rng& rng, int num_nodes, int num_taps, double cap_lo,
                   double cap_hi, double res_lo, double res_hi) {
  Stage s;
  s.nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    RcNode& node = s.nodes[static_cast<std::size_t>(i)];
    node.cap = rng.uniform(cap_lo, cap_hi);
    if (i > 0) {
      node.parent = static_cast<int>(rng.uniform_int(0, i - 1));
      node.res = rng.uniform(res_lo, res_hi);
    }
  }
  for (int k = 0; k < num_taps; ++k) {
    Tap tap;
    tap.rc_index = static_cast<int>(rng.uniform_int(0, num_nodes - 1));
    s.taps.push_back(tap);
  }
  return s;
}

/// The kernel clones this CPU runs: the baseline always, AVX2 when present.
std::vector<detail::KernelIsa> supported_isas() {
  std::vector<detail::KernelIsa> isas;
  for (detail::KernelIsa isa : {detail::KernelIsa::kBaseline, detail::KernelIsa::kAvx2}) {
    if (detail::kernel_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

const char* isa_name(detail::KernelIsa isa) {
  return isa == detail::KernelIsa::kAvx2 ? "avx2" : "baseline";
}

/// Runs the kernel on every supported clone (each on a fresh scratch and on
/// `reused`, which earlier calls left dirty) and the reference on the same
/// inputs; the rows must be the same bytes.  Returns the reference rows.
std::vector<TapTiming> expect_rows_match_reference(
    const TransientSimulator& sim, const Stage& stage,
    const std::vector<BatchDrive>& drives,
    const detail::ElmoreOverride* elmore,
    TransientScratch& reused, const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t nt = stage.taps.size();
  const std::size_t rows = drives.size() * nt;
  std::vector<TapTiming> expected(rows);
  reference::simulate_stage_rows(sim.options(), stage, drives.data(),
                                 drives.size(), expected.data(), elmore);
  for (detail::KernelIsa isa : supported_isas()) {
    SCOPED_TRACE(isa_name(isa));
    std::vector<TapTiming> fresh(rows), dirty(rows);
    TransientScratch scratch;
    detail::simulate_stage_batch_on(isa, sim, stage, drives.data(), drives.size(),
                                    fresh.data(), scratch, elmore);
    detail::simulate_stage_batch_on(isa, sim, stage, drives.data(), drives.size(),
                                    dirty.data(), reused, elmore);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(std::memcmp(&fresh[r], &expected[r], sizeof(TapTiming)), 0)
          << "drive " << r / nt << " tap " << r % nt
          << ": delay " << fresh[r].delay << " vs " << expected[r].delay
          << ", slew " << fresh[r].slew << " vs " << expected[r].slew;
      EXPECT_EQ(std::memcmp(&dirty[r], &expected[r], sizeof(TapTiming)), 0)
          << "reused scratch, drive " << r / nt << " tap " << r % nt;
    }
  }
  return expected;
}

/// The lane's stop time, recomputed the way the integrator does.
Ps stop_time(const TransientOptions& o, const BatchDrive& d, Ff total_cap,
             Ps max_tau) {
  const Ps tau_char = std::max(d.r_drv * total_cap + max_tau, 0.5);
  const Ps t0 = d.intrinsic + o.slew_to_delay * d.input_slew;
  const Ps ramp = o.ramp_base + o.slew_feedthrough * d.input_slew;
  return t0 + ramp + 40.0 * tau_char;
}

/// A lane's step grid, recomputed the way the integrator does: the nominal
/// step h0, the step h taken and the number of steps across the ramp.
struct Grid {
  Ps h0 = 0.0;
  Ps h = 0.0;
  double ramp_steps = 0.0;
};

Grid grid(const TransientOptions& o, const BatchDrive& d, Ff total_cap, Ps max_tau) {
  const Ps tau_char = std::max(d.r_drv * total_cap + max_tau, 0.5);
  const Ps ramp = o.ramp_base + o.slew_feedthrough * d.input_slew;
  Grid g;
  g.h0 = std::clamp(std::min(tau_char / o.time_step_div, ramp / 4.0), o.min_step,
                    o.max_step);
  if (ramp >= o.min_step) {
    g.ramp_steps = std::ceil(ramp / g.h0);
    g.h = ramp / g.ramp_steps;
  } else {
    g.h = g.h0;
    g.ramp_steps = 1.0;
  }
  return g;
}

Ps max_tap_tau(const ElmoreStage& elm, const Stage& stage) {
  Ps max_tau = 0.0;
  for (const Tap& tap : stage.taps) max_tau = std::max(max_tau, elm.tau(tap.rc_index));
  return max_tau;
}

TEST(TransientOracle, RandomStagesAndBatchesMatchTheReference) {
  Rng rng(0x0AC1E);
  TransientOptions coarse;  // floors most steps at min_step
  coarse.min_step = 0.4;
  TransientOptions fine;  // caps most steps at max_step
  fine.max_step = 0.05;
  const TransientSimulator sims[] = {TransientSimulator{}, TransientSimulator{coarse},
                                     TransientSimulator{fine}};
  TransientScratch reused;
  for (int rep = 0; rep < 60; ++rep) {
    const int num_nodes = static_cast<int>(rng.uniform_int(1, 80));
    const int num_taps = rep % 5 == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 8));
    const Stage s = random_stage(rng, num_nodes, num_taps, 0.5, 30.0, 0.001, 0.4);
    const std::size_t count = static_cast<std::size_t>(rep % 9 + 1);
    std::vector<BatchDrive> drives;
    for (std::size_t b = 0; b < count; ++b) {
      BatchDrive d{rng.uniform(0.05, 1.2), rng.uniform(0.0, 40.0),
                   rng.uniform(0.0, 60.0)};
      if (rng.uniform_int(0, 3) == 0) d.intrinsic = rng.uniform(200.0, 800.0);
      drives.push_back(d);
    }
    const TransientSimulator& sim = sims[rep % 3];
    const std::string what = "rep " + std::to_string(rep) + ", " +
                             std::to_string(num_nodes) + " nodes, " +
                             std::to_string(num_taps) + " taps, " +
                             std::to_string(count) + " drives";
    expect_rows_match_reference(sim, s, drives, nullptr, reused, what);
  }
}

TEST(TransientOracle, OneLaneStartsThousandsOfStepsLate) {
  Rng rng(0x1D1E);
  const TransientSimulator sim;
  TransientScratch reused;
  const Stage s = random_stage(rng, 40, 5, 0.5, 20.0, 0.001, 0.2);
  // The late lane's clock starts over a thousand of its steps after the
  // others', so the lanes' clocks and crossing times differ by that much.
  for (std::size_t count = 1; count <= 9; ++count) {
    std::vector<BatchDrive> drives;
    for (std::size_t b = 0; b < count; ++b) {
      drives.push_back(b == count / 2 ? BatchDrive{0.3, 4000.0, 10.0}
                                      : BatchDrive{0.2 + 0.1 * b, 3.0, 8.0});
    }
    const ElmoreStage elm(s);
    ASSERT_GT(drives[count / 2].intrinsic,
              1000.0 * grid(sim.options(), drives[count / 2], elm.total_cap(),
                            max_tap_tau(elm, s)).h);
    expect_rows_match_reference(sim, s, drives, nullptr, reused,
                                std::to_string(count) + " drives");
  }
}

TEST(TransientOracle, StepsClampedAtMinStepAndMaxStep) {
  Rng rng(0xC1A4);
  const TransientSimulator sim;
  const TransientOptions& o = sim.options();
  TransientScratch reused;

  // Tiny stage: tau_char bottoms out at 0.5 ps, so h0 = min_step, and the
  // aligned step is the largest one at most min_step that divides the ramp.
  {
    const Stage s = random_stage(rng, 12, 3, 0.001, 0.01, 0.001, 0.01);
    const ElmoreStage elm(s);
    const Ps max_tau = max_tap_tau(elm, s);
    std::vector<BatchDrive> drives = {{0.01, 2.0, 1.0}, {0.02, 15.0, 0.0},
                                      {0.01, 0.0, 3.0}, {0.03, 6.0, 2.0},
                                      {0.02, 1.0, 0.5}};
    for (const BatchDrive& d : drives) {
      const Grid g = grid(o, d, elm.total_cap(), max_tau);
      const Ps ramp = o.ramp_base + o.slew_feedthrough * d.input_slew;
      ASSERT_EQ(g.h0, o.min_step);
      EXPECT_LE(g.h, o.min_step);
      EXPECT_GT(g.h, o.min_step / 2.0);
      EXPECT_EQ(g.ramp_steps, std::ceil(ramp / o.min_step));
    }
    for (std::size_t count = 1; count <= drives.size(); ++count) {
      const std::vector<BatchDrive> batch(drives.begin(), drives.begin() + count);
      expect_rows_match_reference(sim, s, batch, nullptr, reused,
                                  "min_step, " + std::to_string(count) + " drives");
    }
  }

  // Heavy stage: slow drives hit max_step, a fast one in the same group
  // does not, so the lanes run different timesteps side by side.  One
  // clamped lane's ramp (22 ps) takes whole max_steps; the other's (17 ps)
  // does not, so alignment shortens its step below max_step.
  {
    const Stage s = random_stage(rng, 30, 4, 5.0, 12.0, 0.01, 0.05);
    const ElmoreStage elm(s);
    const Ps max_tau = max_tap_tau(elm, s);
    std::vector<BatchDrive> drives = {{2.5, 5.0, 40.0}, {0.05, 2.0, 4.0},
                                      {3.0, 1.0, 30.0}, {2.0, 8.0, 50.0}};
    const Grid slow = grid(o, drives[0], elm.total_cap(), max_tau);
    const Grid fast = grid(o, drives[1], elm.total_cap(), max_tau);
    const Grid shortened = grid(o, drives[2], elm.total_cap(), max_tau);
    EXPECT_EQ(slow.h0, o.max_step);
    EXPECT_EQ(slow.h, o.max_step);
    EXPECT_LT(fast.h0, o.max_step);
    EXPECT_EQ(shortened.h0, o.max_step);
    EXPECT_LT(shortened.h, o.max_step);
    for (std::size_t count = 1; count <= drives.size(); ++count) {
      const std::vector<BatchDrive> batch(drives.begin(), drives.begin() + count);
      expect_rows_match_reference(sim, s, batch, nullptr, reused,
                                  "max_step, " + std::to_string(count) + " drives");
    }
  }
}

TEST(TransientOracle, DriverWithoutDelayStartsAtTimeZero) {
  // intrinsic = 0 and input_slew = 0 put t0 at exactly 0: the clock starts
  // at 0, beside lanes whose clocks start later.
  Rng rng(0x7E50);
  const TransientSimulator sim;
  TransientScratch reused;
  const Stage s = random_stage(rng, 30, 5, 0.5, 15.0, 0.001, 0.2);
  const std::vector<BatchDrive> all = {{0.3, 0.0, 0.0}, {0.2, 5.0, 8.0},
                                       {0.6, 0.0, 0.0}, {0.1, 1.0, 0.0},
                                       {0.4, 0.0, 0.0}};
  for (std::size_t count = 1; count <= all.size(); ++count) {
    const std::vector<BatchDrive> drives(all.begin(), all.begin() + count);
    const std::vector<TapTiming> rows = expect_rows_match_reference(
        sim, s, drives, nullptr, reused, "t0 = 0, " + std::to_string(count) + " drives");
    for (const TapTiming& r : rows) {
      EXPECT_GT(r.delay, 0.0);
      EXPECT_GT(r.slew, 0.0);
    }
  }
}

TEST(TransientOracle, RampShorterThanAStep) {
  // With min_step above the ramp no grid both aligns to the ramp and keeps
  // the step: such a lane steps at h0 and takes the whole ramp in its first
  // step.  Ramps from 0.3 to 2.3 ps against a 1 ps floor put lanes on both
  // sides of that rule in the same groups.
  Rng rng(0x5407);
  TransientOptions o;
  o.min_step = 1.0;
  o.ramp_base = 0.3;
  o.slew_feedthrough = 0.05;
  const TransientSimulator sim(o);
  TransientScratch reused;
  const Stage s = random_stage(rng, 20, 4, 0.5, 10.0, 0.001, 0.2);
  const ElmoreStage elm(s);
  const Ps max_tau = max_tap_tau(elm, s);
  const std::vector<BatchDrive> all = {{0.2, 3.0, 0.0},  {0.3, 1.0, 40.0},
                                       {0.1, 2.0, 10.0}, {0.5, 0.0, 0.0},
                                       {0.2, 4.0, 30.0}};
  int short_ramps = 0;
  for (const BatchDrive& d : all) {
    const Ps ramp = o.ramp_base + o.slew_feedthrough * d.input_slew;
    const Grid g = grid(o, d, elm.total_cap(), max_tau);
    if (ramp < o.min_step) {
      ++short_ramps;
      EXPECT_EQ(g.h, g.h0);
      EXPECT_EQ(g.ramp_steps, 1.0);
      EXPECT_GT(g.h, ramp);
    } else {
      EXPECT_LE(g.h, ramp);
    }
  }
  ASSERT_EQ(short_ramps, 3);
  for (std::size_t count = 1; count <= all.size(); ++count) {
    const std::vector<BatchDrive> drives(all.begin(), all.begin() + count);
    expect_rows_match_reference(sim, s, drives, nullptr, reused,
                                "short ramp, " + std::to_string(count) + " drives");
  }
}

/// 0 -> 1 response of a lumped RC (time constant tau) to a unit ramp of
/// length `ramp` that starts at time 0.
double single_pole(double t, double tau, double ramp) {
  if (t <= 0.0) return 0.0;
  if (t <= ramp) return (t - tau * (1.0 - std::exp(-t / tau))) / ramp;
  return 1.0 - (tau / ramp) * std::expm1(ramp / tau) * std::exp(-t / tau);
}

/// When single_pole() crosses `th`, by bisection.
double single_pole_crossing(double th, double tau, double ramp) {
  double lo = 0.0, hi = ramp + 60.0 * tau;
  for (int i = 0; i < 200; ++i) {
    const double mid = (lo + hi) / 2.0;
    (single_pole(mid, tau, ramp) < th ? lo : hi) = mid;
  }
  return lo;
}

TEST(TransientOracle, TapOnTheDriverNodeFollowsTheSinglePoleSolution) {
  // A one-node stage tapped at the driver node: the driver's injection is
  // part of that node's slope, so the crossings fit the exact response.
  // Leaving the injection out of the slope misses the delay here by up to
  // 0.14 ps and the slew by up to 0.29 ps.
  const TransientSimulator sim;
  const TransientOptions& o = sim.options();
  TransientScratch reused;
  for (const Ff c : {5.0, 20.0, 60.0}) {
    Stage s;
    s.nodes = {{c, -1, 0.0}};
    s.taps.resize(1);
    s.taps[0].rc_index = 0;
      std::vector<BatchDrive> drives;
    for (const KOhm r : {0.1, 0.5, 1.0}) {
      for (const Ps slew : {0.0, 10.0, 40.0}) drives.push_back({r, 1.5, slew});
    }
    const std::vector<TapTiming> rows = expect_rows_match_reference(
        sim, s, drives, nullptr, reused, "node-0 tap, C " + std::to_string(c));
    for (std::size_t b = 0; b < drives.size(); ++b) {
      const BatchDrive& d = drives[b];
      SCOPED_TRACE("r " + std::to_string(d.r_drv) + ", slew " + std::to_string(d.input_slew));
      const Ps t0 = d.intrinsic + o.slew_to_delay * d.input_slew;
      const Ps ramp = o.ramp_base + o.slew_feedthrough * d.input_slew;
      const Ps tau = d.r_drv * c;
      const Ps t10 = single_pole_crossing(0.1, tau, ramp);
      const Ps t50 = single_pole_crossing(0.5, tau, ramp);
      const Ps t90 = single_pole_crossing(0.9, tau, ramp);
      EXPECT_NEAR(rows[b].delay, t0 + t50, 0.002);
      EXPECT_NEAR(rows[b].slew, t90 - t10, 0.015);
    }
  }
}

TEST(TransientOracle, LaneTimingOutLeavesAFinishedLaneAlone) {
  // An Elmore override that claims zero capacitance puts every stop time
  // at t0 + ramp + 20 ps (a true sweep never lets a lane time out).  A strong driver on a fast stage finishes well
  // before that; a weak one (tau ~ 1 ns) stops with its taps still below
  // 10 %.  Both lanes share groups, the slow one in every position.
  Rng rng(0x71AE);
  const TransientSimulator sim;
  TransientScratch reused;
  const Stage s = random_stage(rng, 20, 4, 2.0, 6.0, 0.0005, 0.002);
  const std::vector<Ps> zero_tau(s.nodes.size(), 0.0);
  const detail::ElmoreOverride understated{zero_tau.data(), 0.0};
  const BatchDrive fast{0.002, 4.0, 6.0};
  const BatchDrive slow{12.0, 4.0, 6.0};

  for (std::size_t count = 2; count <= 5; ++count) {
    for (std::size_t slow_at = 0; slow_at < count; ++slow_at) {
      std::vector<BatchDrive> drives(count, fast);
      drives[slow_at] = slow;
      expect_rows_match_reference(sim, s, drives, &understated, reused,
                                  std::to_string(count) + " drives, slow lane " +
                                      std::to_string(slow_at));

      const Ps slow_stop = stop_time(sim.options(), slow, 0.0, 0.0);
      const Ps fast_stop = stop_time(sim.options(), fast, 0.0, 0.0);
      for (detail::KernelIsa isa : supported_isas()) {
        SCOPED_TRACE(isa_name(isa));
        std::vector<TapTiming> rows(count * s.taps.size());
        detail::simulate_stage_batch_on(isa, sim, s, drives.data(), count,
                                        rows.data(), reused, &understated);
        for (std::size_t b = 0; b < count; ++b) {
          for (std::size_t k = 0; k < s.taps.size(); ++k) {
            const TapTiming& r = rows[b * s.taps.size() + k];
            if (b == slow_at) {
              EXPECT_EQ(r.delay, slow_stop) << "the slow lane must time out";
            } else {
              EXPECT_LT(r.delay, fast_stop) << "the fast lane must finish";
            }
          }
        }
      }
    }
  }
}

TEST(TransientOracle, BaselineCloneIsAlwaysSupported) {
  EXPECT_TRUE(detail::kernel_isa_supported(detail::KernelIsa::kBaseline));
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  EXPECT_EQ(detail::kernel_isa_supported(detail::KernelIsa::kAvx2),
            __builtin_cpu_supports("avx2") != 0);
#endif
}

TEST(TransientOracle, ManyTapsAtEveryWidth) {
  // More taps than a 64-bit mask holds, several on one node, crossing at
  // different steps, so each lane's pending list shrinks out of order.
  Rng rng(0x7A95);
  const TransientSimulator sim;
  TransientScratch reused;
  const Stage s = random_stage(rng, 150, 90, 0.5, 15.0, 0.001, 0.3);
  for (std::size_t count = 1; count <= 5; ++count) {
    std::vector<BatchDrive> drives;
    for (std::size_t b = 0; b < count; ++b) {
      drives.push_back({0.1 + 0.15 * static_cast<double>(b), 2.0 * b, 5.0 + 9.0 * b});
    }
    expect_rows_match_reference(sim, s, drives, nullptr, reused,
                                "90 taps, " + std::to_string(count) + " drives");
  }
}

TEST(TransientOracle, AllThresholdsCrossedInOneStep) {
  // A floor far above the stage's time constants and a 2 ps ramp, shorter
  // than the step: the source swings within the first step, and the taps
  // jump from below 10% to above 90% in it (then ring; trapezoidal steps
  // are not monotone).
  Rng rng(0x57E9);
  TransientOptions coarse;
  coarse.min_step = 6.0;
  coarse.max_step = 8.0;
  const TransientSimulator sim(coarse);
  TransientScratch reused;
  const Stage s = random_stage(rng, 10, 6, 0.01, 0.2, 0.001, 0.01);
  const std::vector<BatchDrive> all = {{0.01, 1.0, 0.0}, {0.02, 3.0, 0.0},
                                       {0.01, 0.0, 0.0}, {0.03, 7.0, 0.0},
                                       {0.02, 2.0, 0.0}};
  for (std::size_t count = 1; count <= all.size(); ++count) {
    const std::vector<BatchDrive> drives(all.begin(), all.begin() + count);
    const std::vector<TapTiming> rows = expect_rows_match_reference(
        sim, s, drives, nullptr, reused,
        "one-step crossings, " + std::to_string(count) + " drives");
    // All three crossings interpolate inside the same step: the slew is
    // shorter than the step.
    for (const TapTiming& r : rows) EXPECT_LT(r.slew, coarse.min_step);
  }
}

TEST(TransientOracle, TapsStillPendingAtTheStopTime) {
  // An Elmore override that claims zero capacitance stops every lane 20 ps
  // after its ramp.  Taps next to the driver finish; taps behind a large
  // resistance stop part-way, some past 10% or 50% but short of 90%.
  const TransientSimulator sim;
  TransientScratch reused;
  Stage s;
  s.nodes = {{2.0, -1, 0.0}, {2.0, 0, 0.001}, {3.0, 1, 0.002},
             {5.0, 1, 3.0},  {5.0, 3, 40.0},  {4.0, 2, 1.0}};
  for (int rc : {1, 3, 2, 4, 5, 0}) {  // tap 0 near, tap 3 far
    Tap tap;
    tap.rc_index = rc;
    s.taps.push_back(tap);
  }
  const std::vector<Ps> zero_tau(s.nodes.size(), 0.0);
  const detail::ElmoreOverride understated{zero_tau.data(), 0.0};
  const std::vector<BatchDrive> all = {{0.01, 4.0, 6.0}, {0.2, 1.0, 2.0},
                                       {0.05, 9.0, 0.0}, {0.5, 2.0, 4.0},
                                       {0.02, 0.0, 10.0}};
  for (std::size_t count = 1; count <= all.size(); ++count) {
    const std::vector<BatchDrive> drives(all.begin(), all.begin() + count);
    const std::vector<TapTiming> rows = expect_rows_match_reference(
        sim, s, drives, &understated, reused,
        "pending at t_stop, " + std::to_string(count) + " drives");
    const std::size_t nt = s.taps.size();
    for (std::size_t b = 0; b < count; ++b) {
      const Ps t_stop = stop_time(sim.options(), drives[b], 0.0, 0.0);
      EXPECT_LT(rows[b * nt].delay, t_stop) << "the near tap must finish";
      EXPECT_EQ(rows[b * nt + 3].delay, t_stop) << "the far tap must time out";
    }
  }
}

/// A stage with the given parents (parent[0] = -1, parent[i] < i), random
/// caps and resistances, and a tap on each of `tap_nodes`.
Stage stage_with_parents(Rng& rng, const std::vector<int>& parents,
                         const std::vector<int>& tap_nodes) {
  Stage s;
  s.nodes.resize(parents.size());
  for (std::size_t i = 0; i < parents.size(); ++i) {
    RcNode& node = s.nodes[i];
    node.cap = rng.uniform(0.5, 12.0);
    node.parent = parents[i];
    if (i > 0) node.res = rng.uniform(0.001, 0.3);
  }
  for (int rc : tap_nodes) {
    Tap tap;
    tap.rc_index = rc;
    s.taps.push_back(tap);
  }
  return s;
}

/// How many nodes have the node before them as parent: the links the
/// kernel's sweeps carry in a register.
int chain_links(const Stage& s) {
  int links = 0;
  for (std::size_t i = 1; i < s.nodes.size(); ++i) {
    links += s.nodes[i].parent == static_cast<int>(i) - 1;
  }
  return links;
}

/// `count` different drives, some starting late, some with long ramps.
std::vector<BatchDrive> varied_drives(Rng& rng, std::size_t count) {
  std::vector<BatchDrive> drives;
  for (std::size_t b = 0; b < count; ++b) {
    drives.push_back({rng.uniform(0.05, 1.0), rng.uniform(0.0, 30.0),
                      rng.uniform(0.0, 50.0)});
  }
  return drives;
}

TEST(TransientOracle, ChainStarAndCombTopologiesAtEveryWidth) {
  // The sweeps carry a node's value in a register along parent == i - 1
  // links and go through memory on every other link.  A pure chain carries
  // every link, a star only node 1's, and a comb alternates the two: spine
  // node 2k hangs off spine node 2k - 2 (through memory) and its tooth
  // 2k + 1 off it (carried).  A comb with three-node teeth mixes carried
  // runs with heads whose parent is several nodes back.
  Rng rng(0xC4A1);
  const TransientSimulator sim;
  TransientScratch reused;
  struct Topology {
    std::string name;
    std::vector<int> parents;
    std::vector<int> taps;
    int carried;
  };
  std::vector<Topology> topologies;
  {
    Topology chain{"chain", {-1}, {39, 20, 5, 39}, 39};
    for (int i = 1; i < 40; ++i) chain.parents.push_back(i - 1);
    topologies.push_back(chain);
  }
  {
    Topology star{"star", {-1}, {3, 17, 29, 1}, 1};
    for (int i = 1; i < 30; ++i) star.parents.push_back(0);
    topologies.push_back(star);
  }
  {
    Topology comb{"comb", {-1, 0}, {1, 13, 22, 30, 31}, 16};
    for (int i = 2; i < 32; ++i) comb.parents.push_back(i % 2 == 1 ? i - 1 : i - 2);
    topologies.push_back(comb);
  }
  {
    // Spine 0, 4, 8, ...; teeth i + 1 -> i + 2 -> i + 3 below spine node i.
    Topology teeth{"comb with three-node teeth", {-1}, {3, 12, 27, 35, 24}, 27};
    for (int i = 1; i < 36; ++i) teeth.parents.push_back(i % 4 == 0 ? i - 4 : i - 1);
    topologies.push_back(teeth);
  }
  for (const Topology& topo : topologies) {
    const Stage s = stage_with_parents(rng, topo.parents, topo.taps);
    ASSERT_EQ(chain_links(s), topo.carried) << topo.name;
    for (std::size_t count = 1; count <= 9; ++count) {
      expect_rows_match_reference(sim, s, varied_drives(rng, count), nullptr, reused,
                                  topo.name + ", " + std::to_string(count) + " drives");
    }
  }
}

TEST(TransientOracle, TappedDriverNodeWithSeveralChildren) {
  // The driver node has a carried child (node 1) and three more reached
  // through memory, and two taps of its own: their crossing slopes take
  // the driver's injection from the lanes' source values.
  Rng rng(0xD0D0);
  const TransientSimulator sim;
  TransientScratch reused;
  const Stage s = stage_with_parents(rng, {-1, 0, 1, 0, 3, 0, 0, 6, 7},
                                     {0, 2, 8, 0, 5});
  for (std::size_t count = 1; count <= 9; ++count) {
    expect_rows_match_reference(sim, s, varied_drives(rng, count), nullptr, reused,
                                "driver-node taps, " + std::to_string(count) + " drives");
  }
}

TEST(TransientOracle, LaneStopsWhileOtherLanesStillHaveItsTapPending) {
  // An Elmore override that claims zero capacitance stops every lane 20 ps
  // after its ramp.  The weak lane stops with every tap below 10 %; had it
  // kept looking, its still-integrating voltage would cross 10 % within
  // the next 5 ps (250 steps), while the strong lanes, on longer ramps,
  // still wait for the same taps.  Every lane steps at the floor step, so step
  // counts line up.  Groups of 3 and 7 drives pad a lane as well; one
  // drive is the weak lane alone.
  Rng rng(0x5709);
  const TransientSimulator sim;
  const TransientOptions& o = sim.options();
  TransientScratch reused;
  const Stage s = stage_with_parents(rng, {-1, 0, 1, 2, 1, 4}, {3, 5, 0});
  const std::vector<Ps> zero_tau(s.nodes.size(), 0.0);
  const detail::ElmoreOverride understated{zero_tau.data(), 0.0};
  const BatchDrive weak{9.5, 2.0, 0.0};
  const Ps weak_t0 = weak.intrinsic;
  const Ps weak_stop = stop_time(o, weak, 0.0, 0.0);
  const Grid weak_grid = grid(o, weak, 0.0, 0.0);
  ASSERT_EQ(weak_grid.h0, o.min_step);

  // The weak lane alone with a stop `extra` ps later (tau_char 0.5 ps, the
  // floor, plus extra / 40), still on the floor step: it crosses 10 % at
  // some tap (a nonzero slew row) before then.
  const Ps extra = 5.0;
  const std::vector<Ps> later_tau(s.nodes.size(), 0.5 + extra / 40.0);
  const detail::ElmoreOverride later{later_tau.data(), 0.0};
  ASSERT_EQ(grid(o, weak, 0.0, later_tau[0]).h, weak_grid.h);
  ASSERT_EQ(stop_time(o, weak, 0.0, later_tau[0]), weak_stop + extra);
  {
    std::vector<TapTiming> row(s.taps.size());
    reference::simulate_stage_rows(o, s, &weak, 1, row.data(), &later);
    bool crossed = false;
    for (const TapTiming& r : row) crossed = crossed || r.slew > 0.0;
    ASSERT_TRUE(crossed) << "the weak lane must cross 10 % after its stop";
  }
  const double later_stop_step = (weak_stop + extra - weak_t0) / weak_grid.h;

  for (std::size_t count = 1; count <= 9; ++count) {
    std::vector<BatchDrive> drives;
    for (std::size_t b = 0; b < count; ++b) {
      drives.push_back(b == count / 2 ? weak
                                      : BatchDrive{0.02 + 0.01 * b, 1.0 + b, 120.0 + 5.0 * b});
    }
    const std::vector<TapTiming> rows = expect_rows_match_reference(
        sim, s, drives, &understated, reused,
        "weak lane " + std::to_string(count / 2) + " of " + std::to_string(count));
    const std::size_t nt = s.taps.size();
    for (std::size_t b = 0; b < count; ++b) {
      const BatchDrive& d = drives[b];
      const Ps t0 = d.intrinsic + o.slew_to_delay * d.input_slew;
      const Grid gb = grid(o, d, 0.0, 0.0);
      ASSERT_EQ(gb.h0, o.min_step);
      for (std::size_t k = 0; k < nt; ++k) {
        const TapTiming& r = rows[b * nt + k];
        if (b == count / 2) {
          EXPECT_EQ(r.delay, weak_stop) << "the weak lane must stop";
          EXPECT_EQ(r.slew, 0.0) << "the weak lane must cross nothing";
        } else {
          EXPECT_LT(r.delay, stop_time(o, d, 0.0, 0.0)) << "strong lane " << b;
          EXPECT_GT((r.delay - t0) / gb.h, later_stop_step)
              << "strong lane " << b << " tap " << k << " must still be pending";
        }
      }
    }
  }
}

TEST(TransientOracle, StageWithoutTaps) {
  Rng rng(0x0747);
  const TransientSimulator sim;
  TransientScratch reused;
  const Stage s = random_stage(rng, 25, 0, 0.5, 10.0, 0.001, 0.2);
  for (std::size_t count = 1; count <= 5; ++count) {
    const std::vector<BatchDrive> drives(count, BatchDrive{0.3, 2.0, 5.0});
    for (detail::KernelIsa isa : supported_isas()) {
      detail::simulate_stage_batch_on(isa, sim, s, drives.data(), count,
                                      nullptr, reused);
    }
  }
  // The scratch a tap-less stage left behind serves a stage with taps.
  const Stage tapped = random_stage(rng, 25, 7, 0.5, 10.0, 0.001, 0.2);
  expect_rows_match_reference(sim, tapped, {{0.3, 2.0, 5.0}, {0.6, 1.0, 9.0}},
                              nullptr, reused, "after a tap-less stage");
}

}  // namespace
}  // namespace contango
