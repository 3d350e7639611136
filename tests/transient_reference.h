// Test oracle for the transient kernel: the one-drive-at-a-time integrator
// loop, kept verbatim as TransientSimulator::simulate_stage_batch ran it
// before drives were interleaved as lanes.  Every row the production kernel
// writes must equal this function's row bit for bit.
//
// Do not "clean up" or speed up this file: its value is that its
// arithmetic, and the order of it, is the historical one.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "analysis/transient.h"
#include "rctree/soa.h"

namespace contango {
namespace reference {

/// Writes `out[b * stage.num_taps + k]` for drive b, tap k, exactly as the
/// historical integrator did.  `elmore` optionally replaces the sweep.
inline void simulate_stage_rows(const TransientOptions& options_,
                                const NetlistSoa::View& stage,
                                const BatchDrive* drives, std::size_t count,
                                TapTiming* out,
                                const detail::ElmoreOverride* elmore) {
  struct Crossings {
    double t10 = -1.0, t50 = -1.0, t90 = -1.0;
  };
  struct {
    std::vector<double> g, cdown, tau, adiag, mult, v, rhs, gv, tap_prev;
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

  // Elmore sweep for timestep selection and the stop guard — borrowed from
  // the caller's cache, or rebuilt here with exactly the ElmoreStage
  // accumulation order (one reverse cdown/total sweep, one forward tau
  // sweep), so both paths produce identical bits.
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
    const Ps t0 = intrinsic + options_.slew_to_delay * input_slew;
    const Ps ramp = options_.ramp_base + options_.slew_feedthrough * input_slew;
    auto source = [&](Ps t) {
      if (t <= t0) return 0.0;
      if (t >= t0 + ramp) return 1.0;
      return (t - t0) / ramp;
    };

    const Ps h = std::clamp(std::min(tau_char / options_.time_step_div, ramp / 4.0),
                            options_.min_step, options_.max_step);
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

    scratch.v.assign(n, 0.0);
    scratch.rhs.assign(n, 0.0);
    scratch.gv.assign(n, 0.0);
    double* v = scratch.v.data();
    double* rhs = scratch.rhs.data();
    double* gv = scratch.gv.data();

    // Threshold bookkeeping per tap.
    constexpr double kTh10 = 0.1, kTh50 = 0.5, kTh90 = 0.9;
    scratch.cross.assign(nt, Crossings{});
    scratch.tap_prev.assign(nt, 0.0);

    std::size_t pending = nt;
    Ps t = 0.0;
    while (pending > 0 && t < t_stop) {
      // rhs = (C/h) v - (G v)/2 + (b(t) + b(t+h))/2.
      std::fill(scratch.gv.begin(), scratch.gv.end(), 0.0);
      gv[0] = g_drv * v[0];
      for (std::size_t i = 1; i < n; ++i) {
        const auto p = static_cast<std::size_t>(parent[i]);
        const double flow = g[i] * (v[i] - v[p]);
        gv[i] += flow;
        gv[p] -= flow;
      }
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = (cap[i] / h) * v[i] - gv[i] / 2.0;
      }
      rhs[0] += g_drv * (source(t) + source(t + h)) / 2.0;

      // Forward elimination (leaves to root), then back-substitution.
      for (std::size_t i = n; i-- > 1;) {
        rhs[static_cast<std::size_t>(parent[i])] += mult[i] * rhs[i];
      }
      v[0] = rhs[0] / adiag[0];
      for (std::size_t i = 1; i < n; ++i) {
        v[i] = (rhs[i] + (g[i] / 2.0) * v[static_cast<std::size_t>(parent[i])]) /
               adiag[i];
      }

      const Ps t_next = t + h;
      for (std::size_t k = 0; k < nt; ++k) {
        Crossings& c = scratch.cross[k];
        if (c.t90 >= 0.0) continue;
        const double prev = scratch.tap_prev[k];
        const double now = v[static_cast<std::size_t>(stage.tap_rc[k])];
        auto interp = [&](double th) {
          return t + h * (th - prev) / std::max(now - prev, 1e-12);
        };
        if (c.t10 < 0.0 && now >= kTh10) c.t10 = interp(kTh10);
        if (c.t50 < 0.0 && now >= kTh50) c.t50 = interp(kTh50);
        if (c.t90 < 0.0 && now >= kTh90) {
          c.t90 = interp(kTh90);
          --pending;
        }
        scratch.tap_prev[k] = now;
      }
      t = t_next;
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
