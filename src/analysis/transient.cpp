#include "analysis/transient.h"

#include <algorithm>
#include <cmath>

#include "util/units.h"

namespace contango {

namespace {

/// Drive-independent data of one stage, computed once per batch.
struct StageConstants {
  std::size_t n = 0;
  std::size_t nt = 0;
  const Ff* cap = nullptr;
  const int* parent = nullptr;
  const int* tap_rc = nullptr;
  const double* g = nullptr;  ///< conductance to parent
  Ff total_cap = 0.0;
  Ps max_tau = 0.0;
};

/// Integrates `count` (1..L) drives of one stage as L interleaved lanes and
/// writes their rows to `out`.  Node state is node-major (`v[i * L + l]`),
/// so every tree sweep updates all lanes of a node together and the lanes'
/// dependency chains overlap.  Lanes share nothing but the stage: each has
/// its own timestep, clock, stop time and pending-tap count, and each lane
/// performs exactly the one-drive integrator's operations in its order, so
/// every row is bit-identical to integrating that drive alone.  Lanes past
/// `count` pad the group: they copy drive 0 to stay finite, are never
/// active, and are never written out.
template <std::size_t L>
void integrate_lanes(const StageConstants& s, const TransientOptions& opt,
                     const BatchDrive* drives, std::size_t count,
                     TapTiming* out, TransientScratch& scratch) {
  const std::size_t n = s.n;
  const std::size_t nt = s.nt;
  const Ff* cap = s.cap;
  const int* parent = s.parent;
  const double* g = s.g;

  Ps h[L] = {}, t0[L] = {}, ramp[L] = {}, t_stop[L] = {}, t[L] = {};
  double g_drv[L] = {};
  std::size_t pending[L] = {};
  for (std::size_t l = 0; l < L; ++l) {
    const BatchDrive& d = drives[l < count ? l : 0];
    const Ps tau_char = std::max(d.r_drv * s.total_cap + s.max_tau, 0.5);
    // Driver source waveform: delay then linear ramp (normalized 0 -> 1).
    t0[l] = d.intrinsic + opt.slew_to_delay * d.input_slew;
    ramp[l] = opt.ramp_base + opt.slew_feedthrough * d.input_slew;
    h[l] = std::clamp(std::min(tau_char / opt.time_step_div, ramp[l] / 4.0),
                      opt.min_step, opt.max_step);
    t_stop[l] = t0[l] + ramp[l] + 40.0 * tau_char;
    g_drv[l] = 1.0 / std::max(d.r_drv, 1e-9);
    pending[l] = l < count ? nt : 0;
  }
  auto source = [&](std::size_t l, Ps at) {
    if (at <= t0[l]) return 0.0;
    if (at >= t0[l] + ramp[l]) return 1.0;
    return (at - t0[l]) / ramp[l];
  };

  // Trapezoidal discretization:
  //   (C/h + G/2) v+  =  (C/h) v - (G v)/2 + (b+ + b)/2.
  // The LHS matrix is constant per drive (h depends on the drive); factor
  // it once with a leaf-to-root sweep.  C/h is kept: the right-hand side
  // needs the same quotient every step.
  scratch.cap_h.resize(n * L);
  scratch.adiag.resize(n * L);
  scratch.mult.resize(n * L);
  double* cap_h = scratch.cap_h.data();
  double* adiag = scratch.adiag.data();
  double* mult = scratch.mult.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < L; ++l) {
      cap_h[i * L + l] = cap[i] / h[l];
      adiag[i * L + l] = cap_h[i * L + l];
    }
  }
  for (std::size_t l = 0; l < L; ++l) adiag[l] += g_drv[l] / 2.0;
  for (std::size_t i = 1; i < n; ++i) {
    const auto p = static_cast<std::size_t>(parent[i]);
    for (std::size_t l = 0; l < L; ++l) {
      adiag[i * L + l] += g[i] / 2.0;
      adiag[p * L + l] += g[i] / 2.0;
    }
  }
  // Cholesky-style tree elimination: children have larger indices.
  for (std::size_t i = n; i-- > 1;) {
    const auto p = static_cast<std::size_t>(parent[i]);
    for (std::size_t l = 0; l < L; ++l) {
      mult[i * L + l] = (g[i] / 2.0) / adiag[i * L + l];
      adiag[p * L + l] -= (g[i] / 2.0) * mult[i * L + l];
    }
  }

  // Start from v = 0, whose G v is exactly +0 in every product and sum.
  // From then on the back-substitution keeps gv = G v current.
  scratch.v.assign(n * L, 0.0);
  scratch.rhs.resize(n * L);
  scratch.gv.assign(n * L, 0.0);
  double* v = scratch.v.data();
  double* rhs = scratch.rhs.data();
  double* gv = scratch.gv.data();

  // Threshold bookkeeping per tap, lane-major (`cross[l * nt + k]`).
  constexpr double kTh10 = 0.1, kTh50 = 0.5, kTh90 = 0.9;
  scratch.cross.assign(nt * L, TransientScratch::Crossings{});
  scratch.tap_prev.assign(nt * L, 0.0);

  // Idle pre-ramp: while a step ends no later than t0 the source is 0 at
  // both of its ends and every voltage stays exactly +0, so the step
  // changes nothing but the clock.  Advance the clock with the same
  // additions the integration loop would make.
  for (std::size_t l = 0; l < L; ++l) {
    while (pending[l] > 0 && t[l] < t_stop[l] && t[l] + h[l] <= t0[l]) {
      t[l] = t[l] + h[l];
    }
  }

  bool active[L] = {};
  for (;;) {
    bool any = false;
    for (std::size_t l = 0; l < L; ++l) {
      active[l] = pending[l] > 0 && t[l] < t_stop[l];
      any = any || active[l];
    }
    if (!any) break;

    // rhs = (C/h) v - (G v)/2 + (b(t) + b(t+h))/2.  Inactive lanes are
    // integrated too (their state is never read again).
    for (std::size_t i = 0; i < n * L; ++i) {
      rhs[i] = cap_h[i] * v[i] - gv[i] / 2.0;
    }
    for (std::size_t l = 0; l < L; ++l) {
      rhs[l] += g_drv[l] * (source(l, t[l]) + source(l, t[l] + h[l])) / 2.0;
    }

    // Forward elimination (leaves to root).
    for (std::size_t i = n; i-- > 1;) {
      const auto p = static_cast<std::size_t>(parent[i]);
      for (std::size_t l = 0; l < L; ++l) {
        rhs[p * L + l] += mult[i * L + l] * rhs[i * L + l];
      }
    }
    // Back-substitution (root to leaves), fused with the next step's G v
    // sweep: node i's flow needs only v[i] and its parent's, both final once
    // i is solved, and every gv update lands in the same order as in a
    // separate sweep.
    std::fill(gv, gv + n * L, 0.0);
    for (std::size_t l = 0; l < L; ++l) {
      v[l] = rhs[l] / adiag[l];
      gv[l] = g_drv[l] * v[l];
    }
    for (std::size_t i = 1; i < n; ++i) {
      const auto p = static_cast<std::size_t>(parent[i]);
      for (std::size_t l = 0; l < L; ++l) {
        v[i * L + l] = (rhs[i * L + l] + (g[i] / 2.0) * v[p * L + l]) /
                       adiag[i * L + l];
        const double flow = g[i] * (v[i * L + l] - v[p * L + l]);
        gv[i * L + l] += flow;
        gv[p * L + l] -= flow;
      }
    }

    for (std::size_t l = 0; l < L; ++l) {
      if (!active[l]) continue;
      const Ps tl = t[l];
      const Ps hl = h[l];
      TransientScratch::Crossings* cross = scratch.cross.data() + l * nt;
      double* tap_prev = scratch.tap_prev.data() + l * nt;
      for (std::size_t k = 0; k < nt; ++k) {
        TransientScratch::Crossings& c = cross[k];
        if (c.t90 >= 0.0) continue;
        const double prev = tap_prev[k];
        const double now = v[static_cast<std::size_t>(s.tap_rc[k]) * L + l];
        auto interp = [&](double th) {
          return tl + hl * (th - prev) / std::max(now - prev, 1e-12);
        };
        if (c.t10 < 0.0 && now >= kTh10) c.t10 = interp(kTh10);
        if (c.t50 < 0.0 && now >= kTh50) c.t50 = interp(kTh50);
        if (c.t90 < 0.0 && now >= kTh90) {
          c.t90 = interp(kTh90);
          --pending[l];
        }
        tap_prev[k] = now;
      }
      t[l] = tl + hl;
    }
  }

  for (std::size_t l = 0; l < count; ++l) {
    const TransientScratch::Crossings* cross = scratch.cross.data() + l * nt;
    TapTiming* result = out + l * nt;
    for (std::size_t k = 0; k < nt; ++k) {
      TransientScratch::Crossings c = cross[k];
      if (c.t10 < 0.0) c.t10 = t_stop[l];
      if (c.t50 < 0.0) c.t50 = t_stop[l];
      if (c.t90 < 0.0) c.t90 = t_stop[l];
      result[k].delay = c.t50;
      result[k].slew = c.t90 - c.t10;
    }
  }
}

}  // namespace

void TransientSimulator::simulate_stage_batch(
    const NetlistSoa::View& stage, const BatchDrive* drives, std::size_t count,
    TapTiming* out, TransientScratch& scratch, const ElmoreView* elmore) const {
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

  StageConstants s;
  s.n = n;
  s.nt = nt;
  s.cap = cap;
  s.parent = parent;
  s.tap_rc = stage.tap_rc;
  s.g = scratch.g.data();
  s.total_cap = total_cap;
  s.max_tau = max_tau;

  // --- per-drive integration, in lane groups of 4, 2 or 1 ----------------
  // Three drives take a 4-wide group with one padded lane; one or two
  // leftovers take the narrow widths.
  for (std::size_t b = 0; b < count;) {
    const std::size_t left = count - b;
    TapTiming* rows = out + b * nt;
    if (left >= 3) {
      const std::size_t lanes = std::min<std::size_t>(left, 4);
      integrate_lanes<4>(s, options_, drives + b, lanes, rows, scratch);
      b += lanes;
    } else if (left == 2) {
      integrate_lanes<2>(s, options_, drives + b, 2, rows, scratch);
      b += 2;
    } else {
      integrate_lanes<1>(s, options_, drives + b, 1, rows, scratch);
      b += 1;
    }
  }
}

}  // namespace contango
