// Test oracle for the transient kernel: the integrator written the plain
// way, one drive at a time, one array per quantity, a separate G v sweep
// after each solve, and every tap checked each step.  The production kernel
// interleaves drives as vector lanes, fuses G v into the back-substitution
// and scans only pending taps; every row it writes must still equal this
// function's row bit for bit.
//
// The scheme: a step grid that starts at the driver's t0 and puts a whole
// number of steps across its ramp, trapezoidal integration, and 10/50/90 %
// crossings on the cubic Hermite fit of each step.  Keep the arithmetic
// and its order as it is: the kernel matches these operations, not the
// numbers they approximate.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "analysis/transient.h"
#include "rctree/soa.h"

namespace contango {
namespace reference {

/// Writes `out[b * stage.num_taps + k]` for drive b, tap k.  `elmore`
/// optionally replaces the sweep.
inline void simulate_stage_rows(const TransientOptions& options_,
                                const NetlistSoa::View& stage,
                                const BatchDrive* drives, std::size_t count,
                                TapTiming* out,
                                const detail::ElmoreOverride* elmore) {
  struct Crossings {
    double t10 = -1.0, t50 = -1.0, t90 = -1.0;
  };
  struct {
    std::vector<double> g, cdown, tau, adiag, mult, v, rhs, gv, tap_prev, tap_prev_gv;
    std::vector<Crossings> cross;
  } scratch;

  const std::size_t n = stage.num_nodes;
  const std::size_t nt = stage.num_taps;
  for (std::size_t i = 0; i < count * nt; ++i) out[i] = TapTiming{};
  if (n == 0 || count == 0) return;

  const Ff* cap = stage.cap;
  const int* parent = stage.parent;

  // --- drive-independent stage data, computed once per batch ------------

  // Conductance to parent.
  scratch.g.assign(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    scratch.g[i] = 1.0 / std::max(stage.res[i], 1e-9);
  }
  const double* g = scratch.g.data();

  // Elmore sweep for timestep selection and the stop guard — the test's
  // override, or rebuilt here with exactly the ElmoreStage accumulation
  // order (one reverse cdown/total sweep, one forward tau sweep).
  const Ps* tau = nullptr;
  Ff total_cap = 0.0;
  if (elmore) {
    tau = elmore->tau;
    total_cap = elmore->total_cap;
  } else {
    scratch.cdown.assign(n, 0.0);
    scratch.tau.assign(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      scratch.cdown[i] += cap[i];
      if (parent[i] >= 0) {
        scratch.cdown[static_cast<std::size_t>(parent[i])] += scratch.cdown[i];
      }
      total_cap += cap[i];
    }
    for (std::size_t i = 1; i < n; ++i) {
      scratch.tau[i] = scratch.tau[static_cast<std::size_t>(parent[i])] +
                       stage.res[i] * scratch.cdown[i];
    }
    tau = scratch.tau.data();
  }
  Ps max_tau = 0.0;
  for (std::size_t k = 0; k < nt; ++k) {
    max_tau = std::max(max_tau, tau[static_cast<std::size_t>(stage.tap_rc[k])]);
  }

  // --- per-drive integration, back-to-back over the cached stage --------
  for (std::size_t b = 0; b < count; ++b) {
    const KOhm r_drv = drives[b].r_drv;
    const Ps intrinsic = drives[b].intrinsic;
    const Ps input_slew = drives[b].input_slew;
    TapTiming* result = out + b * nt;

    const Ps tau_char = std::max(r_drv * total_cap + max_tau, 0.5);

    // Driver source waveform: delay then linear ramp (normalized 0 -> 1).
    // The step grid starts at t0 and a whole number of steps spans the
    // ramp, unless the ramp is shorter than min_step (then it is one step).
    const Ps t0 = intrinsic + options_.slew_to_delay * input_slew;
    const Ps ramp = options_.ramp_base + options_.slew_feedthrough * input_slew;
    const Ps h0 = std::clamp(std::min(tau_char / options_.time_step_div, ramp / 4.0),
                             options_.min_step, options_.max_step);
    Ps h = h0;
    double ramp_steps = 1.0;
    if (ramp >= options_.min_step && std::ceil(ramp / h0) >= 1.0) {
      ramp_steps = std::ceil(ramp / h0);
      h = ramp / ramp_steps;
    }
    // The source after `j` steps.
    auto source = [&](double j) { return j >= ramp_steps ? 1.0 : j / ramp_steps; };
    const Ps t_stop = t0 + ramp + 40.0 * tau_char;

    // Trapezoidal discretization:
    //   (C/h + G/2) v+  =  (C/h) v - (G v)/2 + (b+ + b)/2.
    // The LHS matrix is constant per drive (h depends on the drive); factor
    // it once with a leaf-to-root sweep.
    const KOhm g_drv = 1.0 / std::max(r_drv, 1e-9);
    scratch.adiag.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) scratch.adiag[i] = cap[i] / h;
    scratch.adiag[0] += g_drv / 2.0;
    for (std::size_t i = 1; i < n; ++i) {
      scratch.adiag[i] += g[i] / 2.0;
      scratch.adiag[static_cast<std::size_t>(parent[i])] += g[i] / 2.0;
    }
    // Cholesky-style tree elimination: children have larger indices.
    scratch.mult.assign(n, 0.0);
    for (std::size_t i = n; i-- > 1;) {
      scratch.mult[i] = (g[i] / 2.0) / scratch.adiag[i];
      scratch.adiag[static_cast<std::size_t>(parent[i])] -=
          (g[i] / 2.0) * scratch.mult[i];
    }
    const double* adiag = scratch.adiag.data();
    const double* mult = scratch.mult.data();

    // State at t0: v = 0 and G v = 0.
    scratch.v.assign(n, 0.0);
    scratch.rhs.assign(n, 0.0);
    scratch.gv.assign(n, 0.0);
    double* v = scratch.v.data();
    double* rhs = scratch.rhs.data();
    double* gv = scratch.gv.data();

    // Threshold bookkeeping per tap: voltage and G v after the last step.
    constexpr double kTh10 = 0.1, kTh50 = 0.5, kTh90 = 0.9;
    scratch.cross.assign(nt, Crossings{});
    scratch.tap_prev.assign(nt, 0.0);
    scratch.tap_prev_gv.assign(nt, 0.0);

    std::size_t pending = nt;
    double j = 0.0;
    Ps t = t0;
    while (pending > 0 && t < t_stop) {
      // rhs = (C/h) v - (G v)/2 + (b(t) + b(t+h))/2.
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = (cap[i] / h) * v[i] - gv[i] / 2.0;
      }
      rhs[0] += g_drv * (source(j) + source(j + 1.0)) / 2.0;

      // Forward elimination (leaves to root), then back-substitution.
      for (std::size_t i = n; i-- > 1;) {
        rhs[static_cast<std::size_t>(parent[i])] += mult[i] * rhs[i];
      }
      v[0] = rhs[0] / adiag[0];
      for (std::size_t i = 1; i < n; ++i) {
        v[i] = (rhs[i] + (g[i] / 2.0) * v[static_cast<std::size_t>(parent[i])]) /
               adiag[i];
      }

      // G v of the new state.
      std::fill(scratch.gv.begin(), scratch.gv.end(), 0.0);
      gv[0] = g_drv * v[0];
      for (std::size_t i = 1; i < n; ++i) {
        const auto p = static_cast<std::size_t>(parent[i]);
        const double flow = g[i] * (v[i] - v[p]);
        gv[i] += flow;
        gv[p] -= flow;
      }

      // A crossing lies on the cubic Hermite polynomial through the step's
      // end voltages with the end slopes h dv/dt = h (b - G v)_i / C_i.
      for (std::size_t k = 0; k < nt; ++k) {
        Crossings& c = scratch.cross[k];
        if (c.t90 >= 0.0) continue;
        const auto node = static_cast<std::size_t>(stage.tap_rc[k]);
        const double prev = scratch.tap_prev[k];
        const double now = v[node];
        const double b0 = node == 0 ? g_drv * source(j) : 0.0;
        const double b1 = node == 0 ? g_drv * source(j + 1.0) : 0.0;
        const double d0 = (b0 - scratch.tap_prev_gv[k]) / (cap[node] / h);
        const double d1 = (b1 - gv[node]) / (cap[node] / h);
        auto interp = [&](double th) {
          const double dv = now - prev;
          double x = std::clamp((th - prev) / std::max(dv, 1e-12), 0.0, 1.0);
          if (std::isfinite(d0 + d1)) {
            const double c2 = 3.0 * dv - 2.0 * d0 - d1;
            const double c3 = d0 + d1 - 2.0 * dv;
            for (int it = 0; it < 3; ++it) {
              const double f = prev + x * (d0 + x * (c2 + x * c3)) - th;
              const double df = d0 + x * (2.0 * c2 + x * (3.0 * c3));
              if (!(df > 0.0)) break;
              x = std::clamp(x - f / df, 0.0, 1.0);
            }
          }
          return t + h * x;
        };
        if (c.t10 < 0.0 && now >= kTh10) c.t10 = interp(kTh10);
        if (c.t50 < 0.0 && now >= kTh50) c.t50 = interp(kTh50);
        if (c.t90 < 0.0 && now >= kTh90) {
          c.t90 = interp(kTh90);
          --pending;
        }
        scratch.tap_prev[k] = now;
        scratch.tap_prev_gv[k] = gv[node];
      }
      j = j + 1.0;
      t = t0 + j * h;
    }

    for (std::size_t k = 0; k < nt; ++k) {
      Crossings& c = scratch.cross[k];
      if (c.t10 < 0.0) c.t10 = t_stop;
      if (c.t50 < 0.0) c.t50 = t_stop;
      if (c.t90 < 0.0) c.t90 = t_stop;
      result[k].delay = c.t50;
      result[k].slew = c.t90 - c.t10;
    }
  }
}

}  // namespace reference
}  // namespace contango
