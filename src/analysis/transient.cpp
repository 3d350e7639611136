#include "analysis/transient.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace contango {

namespace {

/// Drive-independent data of one stage, computed once per batch.
struct StageConstants {
  std::size_t n = 0;
  std::size_t nt = 0;
  const RcNode* nodes = nullptr;
  const Tap* taps = nullptr;
  const int* parent = nullptr;  ///< the nodes' parents, contiguous
  const double* g = nullptr;    ///< conductance to parent
  Ff total_cap = 0.0;
  Ps max_tau = 0.0;
};

/// Where a tap crosses `th` within one step, as a fraction of the step in
/// [0, 1]: the root of the cubic Hermite polynomial through the step's end
/// voltages `v0` < th <= `v1` with end slopes `d0`, `d1` (dv/dt times h),
/// by three Newton steps from the linear estimate, each clamped to the
/// step.  A non-finite slope (a node without capacitance) keeps the linear
/// estimate; so does a fit that is not rising where Newton stands.
[[gnu::always_inline]] inline double hermite_crossing(double v0, double v1,
                                                      double d0, double d1,
                                                      double th) {
  const double dv = v1 - v0;
  double x = std::clamp((th - v0) / std::max(dv, 1e-12), 0.0, 1.0);
  if (!std::isfinite(d0 + d1)) return x;
  // p(x) = v0 + x (d0 + x (c2 + x c3)).
  const double c2 = 3.0 * dv - 2.0 * d0 - d1;
  const double c3 = d0 + d1 - 2.0 * dv;
  for (int it = 0; it < 3; ++it) {
    const double f = v0 + x * (d0 + x * (c2 + x * c3)) - th;
    const double df = d0 + x * (2.0 * c2 + x * (3.0 * c3));
    if (!(df > 0.0)) break;
    x = std::clamp(x - f / df, 0.0, 1.0);
  }
  return x;
}

/// The L lanes of one node as one GCC vector.  Node-major lane arrays are
/// read and written through this type: aligned(8) because a node's block
/// sits at any double boundary, may_alias because the storage is doubles.
/// No function passes one by value (a 32-byte argument would change the
/// psABI between the clones); they live inside the one inlined body.
template <std::size_t L>
struct LaneVector {
  typedef double type __attribute__((vector_size(8 * L), aligned(8), may_alias));
};

/// Integrates `count` (1..L) drives of one stage as L interleaved lanes and
/// writes their rows to `out`.  Node state is node-major (`v[i * L + l]`),
/// and every tree sweep updates the L lanes of a node as one vector
/// operation.  Lanes share nothing but the stage: each has its own
/// timestep, clock, stop time and pending taps, and each lane performs
/// exactly the one-drive integrator's operations in its order (the vector
/// operations are element-wise IEEE), so every row is bit-identical to
/// integrating that drive alone.  Lanes past `count` pad the group: they
/// copy drive 0 to stay finite, are never active, and are never written out.
///
/// Always inlined into integrate_lanes() and integrate_lanes_avx2(), the
/// baseline and AVX2 clones of the same body.
template <std::size_t L>
[[gnu::always_inline]] inline void integrate_lanes_body(
    const StageConstants& s, const TransientOptions& opt,
    const BatchDrive* drives, std::size_t count, TapTiming* out,
    TransientScratch& scratch) {
  using V = typename LaneVector<L>::type;
  const std::size_t n = s.n;
  const std::size_t nt = s.nt;
  const RcNode* nodes = s.nodes;
  const int* parent = s.parent;
  const double* g = s.g;

  Ps t0[L] = {}, t_stop[L] = {}, t[L] = {};
  double h[L] = {}, ramp_steps[L] = {}, j[L] = {};
  V hv = {}, g_drv = {};
  for (std::size_t l = 0; l < L; ++l) {
    const BatchDrive& d = drives[l < count ? l : 0];
    const Ps tau_char = std::max(d.r_drv * s.total_cap + s.max_tau, 0.5);
    // Driver source waveform: delay then linear ramp (normalized 0 -> 1).
    t0[l] = d.intrinsic + opt.slew_to_delay * d.input_slew;
    const Ps ramp = opt.ramp_base + opt.slew_feedthrough * d.input_slew;
    const Ps h0 = std::clamp(std::min(tau_char / opt.time_step_div, ramp / 4.0),
                             opt.min_step, opt.max_step);
    // Align the grid to the ramp: the clock starts at t0 (every voltage is
    // exactly 0 before it) and a whole number of steps spans the ramp, so
    // both kinks of the source fall on step boundaries.  A ramp shorter
    // than min_step is one step of h0 instead.
    const double steps = std::ceil(ramp / h0);
    if (ramp >= opt.min_step && steps >= 1.0) {
      h[l] = ramp / steps;
      ramp_steps[l] = steps;
    } else {
      h[l] = h0;
      ramp_steps[l] = 1.0;
    }
    t_stop[l] = t0[l] + ramp + 40.0 * tau_char;
    t[l] = t0[l];
    hv[l] = h[l];
    g_drv[l] = 1.0 / std::max(d.r_drv, 1e-9);
  }
  // The source at grid point `at` (steps since t0).
  auto source = [&](std::size_t l, double at) {
    return at >= ramp_steps[l] ? 1.0 : at / ramp_steps[l];
  };

  // Trapezoidal discretization:
  //   (C/h + G/2) v+  =  (C/h) v - (G v)/2 + (b+ + b)/2.
  // The LHS matrix is constant per drive (h depends on the drive); factor
  // it once with a leaf-to-root sweep.  C/h is kept: the right-hand side
  // needs the same quotient every step.
  scratch.cap_h.resize(n * L);
  scratch.adiag.resize(n * L);
  scratch.mult.resize(n * L);
  V* cap_h = reinterpret_cast<V*>(scratch.cap_h.data());
  V* adiag = reinterpret_cast<V*>(scratch.adiag.data());
  V* mult = reinterpret_cast<V*>(scratch.mult.data());
  for (std::size_t i = 0; i < n; ++i) {
    cap_h[i] = nodes[i].cap / hv;
    adiag[i] = cap_h[i];
  }
  adiag[0] += g_drv / 2.0;
  for (std::size_t i = 1; i < n; ++i) {
    const auto p = static_cast<std::size_t>(parent[i]);
    adiag[i] += g[i] / 2.0;
    adiag[p] += g[i] / 2.0;
  }
  // Cholesky-style tree elimination: children have larger indices.
  for (std::size_t i = n; i-- > 1;) {
    const auto p = static_cast<std::size_t>(parent[i]);
    mult[i] = (g[i] / 2.0) / adiag[i];
    adiag[p] -= (g[i] / 2.0) * mult[i];
  }

  // Start from v = 0, whose G v is exactly +0 in every product and sum.
  // From then on the back-substitution keeps gv = G v current.
  scratch.v.assign(n * L, 0.0);
  scratch.rhs.resize(n * L);
  scratch.gv.assign(n * L, 0.0);
  V* v = reinterpret_cast<V*>(scratch.v.data());
  V* rhs = reinterpret_cast<V*>(scratch.rhs.data());
  V* gv = reinterpret_cast<V*>(scratch.gv.data());

  // Threshold bookkeeping per tap, lane-major (`cross[l * nt + k]`), and
  // each lane's pending taps packed at the front of its slice: a step
  // reads a pending tap's voltage and compares it with the tap's lowest
  // uncrossed threshold, and only a crossing takes the full check.
  constexpr double kTh10 = 0.1, kTh50 = 0.5, kTh90 = 0.9;
  scratch.cross.assign(nt * L, TransientScratch::Crossings{});
  scratch.pending.resize(nt * L);
  std::size_t pending[L] = {};
  for (std::size_t l = 0; l < count; ++l) {
    TransientScratch::PendingTap* list = scratch.pending.data() + l * nt;
    for (std::size_t k = 0; k < nt; ++k) {
      list[k] = {0.0, 0.0, kTh10,
                 static_cast<std::size_t>(s.taps[k].rc_index) * L + l, k};
    }
    pending[l] = nt;
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
    for (std::size_t i = 0; i < n; ++i) rhs[i] = cap_h[i] * v[i] - gv[i] / 2.0;
    V src = {};
    for (std::size_t l = 0; l < L; ++l) {
      src[l] = source(l, j[l]) + source(l, j[l] + 1.0);
    }
    rhs[0] += g_drv * src / 2.0;

    // Forward elimination (leaves to root).
    for (std::size_t i = n; i-- > 1;) {
      rhs[static_cast<std::size_t>(parent[i])] += mult[i] * rhs[i];
    }
    // Back-substitution (root to leaves), fused with the next step's G v
    // sweep: node i's flow needs only v[i] and its parent's, both final once
    // i is solved, and every gv update lands in the same order as in a
    // separate sweep.  Node i's own gv starts at +0 here (its children come
    // later), the value a zero-filled array would give it.
    v[0] = rhs[0] / adiag[0];
    gv[0] = g_drv * v[0];
    for (std::size_t i = 1; i < n; ++i) {
      const auto p = static_cast<std::size_t>(parent[i]);
      const V vp = v[p];
      const V vi = (rhs[i] + (g[i] / 2.0) * vp) / adiag[i];
      v[i] = vi;
      const V flow = g[i] * (vi - vp);
      gv[i] = flow + 0.0;
      gv[p] -= flow;
    }

    const double* volts = scratch.v.data();
    const double* flows = scratch.gv.data();
    const double* caps_h = scratch.cap_h.data();
    for (std::size_t l = 0; l < L; ++l) {
      if (!active[l]) continue;
      const Ps tl = t[l];
      const Ps hl = h[l];
      TransientScratch::Crossings* cross = scratch.cross.data() + l * nt;
      TransientScratch::PendingTap* list = scratch.pending.data() + l * nt;
      std::size_t live = pending[l];
      for (std::size_t p = 0; p < live;) {
        TransientScratch::PendingTap& tap = list[p];
        const double now = volts[tap.node];
        const double gv_now = flows[tap.node];
        if (now >= tap.next) {
          // `next` is the lowest threshold not crossed yet, so while
          // now < next no check below can fire.  A crossing lies on the
          // cubic Hermite fit of the step: end voltages prev and now, end
          // slopes dv/dt = (b - G v)_i / C_i scaled by h (the trapezoid's
          // own, from G v before and after the step).
          TransientScratch::Crossings& c = cross[tap.tap];
          double b0 = 0.0, b1 = 0.0;  // the driver's injection, node 0 only
          if (tap.node < L) {
            b0 = g_drv[l] * source(l, j[l]);
            b1 = g_drv[l] * source(l, j[l] + 1.0);
          }
          const double d0 = (b0 - tap.prev_gv) / caps_h[tap.node];
          const double d1 = (b1 - gv_now) / caps_h[tap.node];
          auto at = [&](double th) {
            return tl + hl * hermite_crossing(tap.prev, now, d0, d1, th);
          };
          if (c.t10 < 0.0 && now >= kTh10) c.t10 = at(kTh10);
          if (c.t50 < 0.0 && now >= kTh50) c.t50 = at(kTh50);
          if (c.t90 < 0.0 && now >= kTh90) {
            c.t90 = at(kTh90);
            tap = list[--live];
            continue;
          }
          tap.next = c.t10 < 0.0 ? kTh10 : c.t50 < 0.0 ? kTh50 : kTh90;
        }
        tap.prev = now;
        tap.prev_gv = gv_now;
        ++p;
      }
      pending[l] = live;
      j[l] = j[l] + 1.0;
      t[l] = t0[l] + j[l] * hl;
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

/// One lane group on one clone of the integrator.
using LaneGroupFn = void (*)(const StageConstants&, const TransientOptions&,
                             const BatchDrive*, std::size_t, TapTiming*,
                             TransientScratch&);

/// Lane-group entry points of one clone, by width.
struct LaneKernels {
  LaneGroupFn four, two, one;
};

template <std::size_t L>
void integrate_lanes(const StageConstants& s, const TransientOptions& opt,
                     const BatchDrive* drives, std::size_t count,
                     TapTiming* out, TransientScratch& scratch) {
  integrate_lanes_body<L>(s, opt, drives, count, out, scratch);
}

constexpr LaneKernels kBaselineKernels = {integrate_lanes<4>, integrate_lanes<2>,
                                          integrate_lanes<1>};

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define CONTANGO_KERNEL_AVX2 1

// Exactly "avx2": adding "fma" would let the compiler contract a*b+c into
// one rounding even where -ffp-contract=off is not passed.
template <std::size_t L>
__attribute__((target("avx2"))) void integrate_lanes_avx2(
    const StageConstants& s, const TransientOptions& opt,
    const BatchDrive* drives, std::size_t count, TapTiming* out,
    TransientScratch& scratch) {
  integrate_lanes_body<L>(s, opt, drives, count, out, scratch);
}

constexpr LaneKernels kAvx2Kernels = {integrate_lanes_avx2<4>,
                                      integrate_lanes_avx2<2>,
                                      integrate_lanes_avx2<1>};
#endif

/// The clone `isa` names, or null when this build or this CPU lacks it.
const LaneKernels* kernels_for(detail::KernelIsa isa) {
  if (isa == detail::KernelIsa::kBaseline) return &kBaselineKernels;
#ifdef CONTANGO_KERNEL_AVX2
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (has_avx2) return &kAvx2Kernels;
#endif
  return nullptr;
}

void simulate_batch(const LaneKernels& kernels, const TransientOptions& options,
                    const Stage& stage, const BatchDrive* drives,
                    std::size_t count, TapTiming* out,
                    TransientScratch& scratch,
                    const detail::ElmoreOverride* elmore) {
  const std::size_t n = stage.nodes.size();
  const std::size_t nt = stage.taps.size();
  for (std::size_t i = 0; i < count * nt; ++i) out[i] = TapTiming{};
  if (n == 0 || count == 0) return;

  const RcNode* nodes = stage.nodes.data();

  // --- drive-independent stage data, computed once per batch ------------

  // Conductance to parent, and the parents copied beside it: the step
  // loops walk these two contiguous arrays.
  scratch.g.assign(n, 0.0);
  scratch.parent.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.parent[i] = nodes[i].parent;
    if (i > 0) scratch.g[i] = 1.0 / std::max(nodes[i].res, 1e-9);
  }
  const int* parent = scratch.parent.data();

  // Elmore sweep for timestep selection and the stop guard, with exactly
  // the ElmoreStage accumulation order (one reverse cdown/total sweep, one
  // forward tau sweep).  Only tests replace it (detail::ElmoreOverride).
  const Ps* tau = nullptr;
  Ff total_cap = 0.0;
  if (elmore) {
    tau = elmore->tau;
    total_cap = elmore->total_cap;
  } else {
    scratch.cdown.assign(n, 0.0);
    scratch.tau.assign(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      scratch.cdown[i] += nodes[i].cap;
      if (parent[i] >= 0) {
        scratch.cdown[static_cast<std::size_t>(parent[i])] += scratch.cdown[i];
      }
      total_cap += nodes[i].cap;
    }
    for (std::size_t i = 1; i < n; ++i) {
      scratch.tau[i] = scratch.tau[static_cast<std::size_t>(parent[i])] +
                       nodes[i].res * scratch.cdown[i];
    }
    tau = scratch.tau.data();
  }
  Ps max_tau = 0.0;
  for (std::size_t k = 0; k < nt; ++k) {
    const auto node = static_cast<std::size_t>(stage.taps[k].rc_index);
    max_tau = std::max(max_tau, tau[node]);
  }

  StageConstants s;
  s.n = n;
  s.nt = nt;
  s.nodes = nodes;
  s.taps = stage.taps.data();
  s.parent = parent;
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
      kernels.four(s, options, drives + b, lanes, rows, scratch);
      b += lanes;
    } else if (left == 2) {
      kernels.two(s, options, drives + b, 2, rows, scratch);
      b += 2;
    } else {
      kernels.one(s, options, drives + b, 1, rows, scratch);
      b += 1;
    }
  }
}

}  // namespace

void TransientSimulator::simulate_stage_batch(
    const Stage& stage, const BatchDrive* drives, std::size_t count,
    TapTiming* out, TransientScratch& scratch) const {
  // The widest clone this CPU runs.
  static const LaneKernels* const kernels = [] {
    const LaneKernels* avx2 = kernels_for(detail::KernelIsa::kAvx2);
    return avx2 ? avx2 : &kBaselineKernels;
  }();
  simulate_batch(*kernels, options_, stage, drives, count, out, scratch,
                 nullptr);
}

namespace detail {

bool kernel_isa_supported(KernelIsa isa) { return kernels_for(isa) != nullptr; }

void simulate_stage_batch_on(KernelIsa isa, const TransientSimulator& sim,
                             const Stage& stage,
                             const BatchDrive* drives, std::size_t count,
                             TapTiming* out, TransientScratch& scratch,
                             const ElmoreOverride* elmore) {
  const LaneKernels* kernels = kernels_for(isa);
  if (!kernels) {
    throw std::invalid_argument("transient kernel clone not supported here");
  }
  simulate_batch(*kernels, sim.options(), stage, drives, count, out, scratch,
                 elmore);
}

}  // namespace detail

}  // namespace contango
