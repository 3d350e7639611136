#include "analysis/transient.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

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
  const double* g_half = nullptr;  ///< g / 2
  /// The chain runs in node order, then the sentinel run at n.
  const TransientScratch::ChainRun* runs = nullptr;
  std::size_t num_runs = 0;  ///< not counting the sentinel
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
/// One lane is a plain double: GCC keeps a one-element vector in an
/// integer register or on the stack, which would undo the register carry.
template <>
struct LaneVector<1> {
  typedef double type;
};

/// Whether any lane of a comparison mask is set (a plain bool at one
/// lane).  Four lanes fold to two first: one permute and one OR in place
/// of two more lane extractions.
template <class M>
[[gnu::always_inline]] inline bool any_lane(const M& m) {
  if constexpr (std::is_arithmetic_v<M>) {
    return m;
  } else if constexpr (sizeof(M) == 4 * sizeof(double)) {
    const auto folded = __builtin_shufflevector(m, m, 0, 1) |
                        __builtin_shufflevector(m, m, 2, 3);
    return (folded[0] | folded[1]) != 0;
  } else {
    static_assert(sizeof(M) == 2 * sizeof(double), "one, two or four lanes");
    return (m[0] | m[1]) != 0;
  }
}

/// Lane l of a lane vector or of a comparison mask (a plain double or bool
/// at one lane).
template <class T>
[[gnu::always_inline]] inline auto& lane(T& x, std::size_t l) {
  if constexpr (std::is_arithmetic_v<std::remove_const_t<T>>) {
    (void)l;
    return x;
  } else {
    return x[l];
  }
}

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
  using Mask = decltype(V{} < V{});
  const std::size_t n = s.n;
  const std::size_t nt = s.nt;
  const RcNode* nodes = s.nodes;
  const int* parent = s.parent;
  const double* g = s.g;
  const double* g_half = s.g_half;
  const TransientScratch::ChainRun* runs = s.runs;
  const std::size_t num_runs = s.num_runs;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Each lane's clock: t = t0 + j h after j steps.  `t_live` is the lane's
  // stop time while it has taps pending and -inf once it has none (or pads
  // the group), so `t < t_live` is the lane's active flag.
  V t0 = {}, t_stop = {}, t_live = {}, hv = {}, ramp_steps = {}, g_drv = {};
  std::size_t pending[L] = {};
  for (std::size_t l = 0; l < L; ++l) {
    const BatchDrive& d = drives[l < count ? l : 0];
    const Ps tau_char = std::max(d.r_drv * s.total_cap + s.max_tau, 0.5);
    // Driver source waveform: delay then linear ramp (normalized 0 -> 1).
    lane(t0, l) = d.intrinsic + opt.slew_to_delay * d.input_slew;
    const Ps ramp = opt.ramp_base + opt.slew_feedthrough * d.input_slew;
    const Ps h0 = std::clamp(std::min(tau_char / opt.time_step_div, ramp / 4.0),
                             opt.min_step, opt.max_step);
    // Align the grid to the ramp: the clock starts at t0 (every voltage is
    // exactly 0 before it) and a whole number of steps spans the ramp, so
    // both kinks of the source fall on step boundaries.  A ramp shorter
    // than min_step is one step of h0 instead.
    const double steps = std::ceil(ramp / h0);
    if (ramp >= opt.min_step && steps >= 1.0) {
      lane(hv, l) = ramp / steps;
      lane(ramp_steps, l) = steps;
    } else {
      lane(hv, l) = h0;
      lane(ramp_steps, l) = 1.0;
    }
    lane(t_stop, l) = lane(t0, l) + ramp + 40.0 * tau_char;
    pending[l] = l < count ? nt : 0;
    lane(t_live, l) = pending[l] > 0 ? lane(t_stop, l) : -kInf;
    lane(g_drv, l) = 1.0 / std::max(d.r_drv, 1e-9);
  }
  // The source at grid point `at` (steps since t0), every lane at once.
  // Vectors pass by reference: a by-value one would change the psABI
  // between the clones.
  auto source = [&](const V& at, V& value) {
    value = at >= ramp_steps ? V{} + 1.0 : at / ramp_steps;
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
    adiag[i] += g_half[i];
    adiag[p] += g_half[i];
  }
  // Cholesky-style tree elimination: children have larger indices.
  for (std::size_t i = n; i-- > 1;) {
    const auto p = static_cast<std::size_t>(parent[i]);
    mult[i] = g_half[i] / adiag[i];
    adiag[p] -= g_half[i] * mult[i];
  }

  // Start from v = 0, whose G v is exactly +0 in every product and sum.
  // From then on each step's back-substitution writes the other buffer's
  // v and G v in full.
  scratch.v[0].assign(n * L, 0.0);
  scratch.gv[0].assign(n * L, 0.0);
  scratch.v[1].resize(n * L);
  scratch.gv[1].resize(n * L);
  scratch.rhs.resize(n * L);
  V* rhs = reinterpret_cast<V*>(scratch.rhs.data());
  double* v_old = scratch.v[0].data();
  double* v_new = scratch.v[1].data();
  double* gv_old = scratch.gv[0].data();
  double* gv_new = scratch.gv[1].data();

  // Threshold bookkeeping: each tap's crossings per lane (lane-major,
  // `cross[l * nt + k]`) and its lowest uncrossed threshold per lane
  // (tap-major, NaN where the lane is not looking), so a step compares a
  // tap's voltages with its thresholds in one vector operation and only a
  // lane that reaches its threshold takes the full check.
  constexpr double kTh10 = 0.1, kTh50 = 0.5, kTh90 = 0.9;
  scratch.cross.assign(nt * L, TransientScratch::Crossings{});
  scratch.next_th.resize(nt * L);
  scratch.live_taps.resize(nt);
  V* next_th = reinterpret_cast<V*>(scratch.next_th.data());
  TransientScratch::TapRecord* live_taps = scratch.live_taps.data();
  V first_th = {};
  for (std::size_t l = 0; l < L; ++l) lane(first_th, l) = l < count ? kTh10 : kNaN;
  for (std::size_t k = 0; k < nt; ++k) {
    next_th[k] = first_th;
    live_taps[k] = {static_cast<std::size_t>(s.taps[k].rc_index), k};
  }
  std::size_t live = nt;

  V j = {};
  V t = t0;
  V s_now;  // the source at the step's start, s(j)
  source(j, s_now);
  Mask was_active = t < t_live;
  for (;;) {
    const Mask active = t < t_live;
    if (!any_lane(active)) break;
    // A lane that stops with taps pending stops looking at them; a record
    // no lane looks at any more leaves.
    const Mask stopped = was_active && !active;
    if (any_lane(stopped)) {
      for (std::size_t p = 0; p < live;) {
        V& th = next_th[live_taps[p].tap];
        th = stopped ? V{} + kNaN : th;
        if (any_lane(th == th)) {
          ++p;
        } else {
          live_taps[p] = live_taps[--live];
        }
      }
    }
    was_active = active;

    const V j_next = j + 1.0;
    V s_next;
    source(j_next, s_next);
    const V* v0 = reinterpret_cast<const V*>(v_old);
    const V* gv0 = reinterpret_cast<const V*>(gv_old);
    V* v1 = reinterpret_cast<V*>(v_new);
    V* gv1 = reinterpret_cast<V*>(gv_new);

    // rhs = (C/h) v - (G v)/2 + (b(t) + b(t+h))/2.  Inactive lanes are
    // integrated too (their state is never read again).
    for (std::size_t i = 0; i < n; ++i) rhs[i] = cap_h[i] * v0[i] - gv0[i] / 2.0;
    rhs[0] += g_drv * (s_now + s_next) / 2.0;

    // Forward elimination (leaves to root), run by run from the last.  A
    // run's nodes are final when reached (their other children are in
    // later runs), and node i is the last child to update its parent
    // i - 1, so the running value carries down the run in a register.
    V cur = {};
    for (std::size_t r = num_runs; r-- > 0;) {
      const auto head = static_cast<std::size_t>(runs[r].start);
      std::size_t i = static_cast<std::size_t>(runs[r + 1].start) - 1;
      cur = rhs[i];
      for (; i > head; --i) {
        cur = rhs[i - 1] + mult[i] * cur;
        rhs[i - 1] = cur;
      }
      if (head > 0) {
        rhs[static_cast<std::size_t>(runs[r].head_parent)] += mult[head] * cur;
      }
    }
    // Back-substitution (root to leaves), fused with the next step's G v
    // sweep: node i's flow needs only v[i] and its parent's, both final once
    // i is solved, and every gv update lands in the same order as in a
    // separate sweep.  Node i's own gv starts at +0 (its children come
    // later), the value a zero-filled array would give it.  Along a run the
    // parent's v and gv stay in registers: node i is the first child to
    // update its parent i - 1, after which only other runs' heads do.
    V vp = cur / adiag[0];  // cur is the root's eliminated rhs
    v1[0] = vp;
    V gv_run = g_drv * vp;
    for (std::size_t r = 0; r < num_runs; ++r) {
      const auto head = static_cast<std::size_t>(runs[r].start);
      const auto end = static_cast<std::size_t>(runs[r + 1].start);
      if (head > 0) {
        const auto p = static_cast<std::size_t>(runs[r].head_parent);
        const V vq = v1[p];
        const V vi = (rhs[head] + g_half[head] * vq) / adiag[head];
        v1[head] = vi;
        const V flow = g[head] * (vi - vq);
        gv1[p] -= flow;
        gv_run = flow + 0.0;
        vp = vi;
      }
      for (std::size_t i = head + 1; i < end; ++i) {
        const V vi = (rhs[i] + g_half[i] * vp) / adiag[i];
        v1[i] = vi;
        const V flow = g[i] * (vi - vp);
        gv1[i - 1] = gv_run - flow;
        gv_run = flow + 0.0;
        vp = vi;
      }
      gv1[end - 1] = gv_run;
    }

    // Crossing checks, one vector compare per live tap.
    for (std::size_t p = 0; p < live;) {
      const TransientScratch::TapRecord rec = live_taps[p];
      V& th = next_th[rec.tap];
      const Mask fired = v1[rec.node] >= th;
      if (!any_lane(fired)) {
        ++p;
        continue;
      }
      for (std::size_t l = 0; l < L; ++l) {
        if (!lane(fired, l)) continue;
        // `th` is the lowest threshold not crossed yet, so while the
        // voltage is below it no check below can fire.  A crossing lies
        // on the cubic Hermite fit of the step: end voltages before and
        // after, end slopes dv/dt = (b - G v)_i / C_i scaled by h (the
        // trapezoid's own, from G v before and after the step).
        const std::size_t at_node = rec.node * L + l;
        const double prev = v_old[at_node];
        const double now = v_new[at_node];
        TransientScratch::Crossings& c = scratch.cross[l * nt + rec.tap];
        double b0 = 0.0, b1 = 0.0;  // the driver's injection, node 0 only
        if (rec.node == 0) {
          b0 = lane(g_drv, l) * lane(s_now, l);
          b1 = lane(g_drv, l) * lane(s_next, l);
        }
        const double d0 = (b0 - gv_old[at_node]) / scratch.cap_h[at_node];
        const double d1 = (b1 - gv_new[at_node]) / scratch.cap_h[at_node];
        const Ps tl = lane(t, l);
        const Ps hl = lane(hv, l);
        auto at = [&](double level) {
          return tl + hl * hermite_crossing(prev, now, d0, d1, level);
        };
        if (c.t10 < 0.0 && now >= kTh10) c.t10 = at(kTh10);
        if (c.t50 < 0.0 && now >= kTh50) c.t50 = at(kTh50);
        if (c.t90 < 0.0 && now >= kTh90) {
          c.t90 = at(kTh90);
          lane(th, l) = kNaN;
          if (--pending[l] == 0) lane(t_live, l) = -kInf;
        } else {
          lane(th, l) = c.t10 < 0.0 ? kTh10 : c.t50 < 0.0 ? kTh50 : kTh90;
        }
      }
      if (any_lane(th == th)) {
        ++p;
      } else {
        live_taps[p] = live_taps[--live];
      }
    }

    // Advance the active lanes' clocks; s(j + 1) is the next step's s(j).
    j = active ? j_next : j;
    t = active ? t0 + j * hv : t;
    s_now = s_next;
    std::swap(v_old, v_new);
    std::swap(gv_old, gv_new);
  }

  for (std::size_t l = 0; l < count; ++l) {
    const TransientScratch::Crossings* cross = scratch.cross.data() + l * nt;
    TapTiming* result = out + l * nt;
    for (std::size_t k = 0; k < nt; ++k) {
      TransientScratch::Crossings c = cross[k];
      if (c.t10 < 0.0) c.t10 = lane(t_stop, l);
      if (c.t50 < 0.0) c.t50 = lane(t_stop, l);
      if (c.t90 < 0.0) c.t90 = lane(t_stop, l);
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

  // Conductance to parent (and its half), and the parents copied beside
  // it, so the loops walk contiguous arrays; and the chain runs, one
  // starting at each node whose parent is not the node before it.
  scratch.g.assign(n, 0.0);
  scratch.g_half.assign(n, 0.0);
  scratch.parent.resize(n);
  scratch.runs.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const int p = nodes[i].parent;
    scratch.parent[i] = p;
    if (i > 0) {
      scratch.g[i] = 1.0 / std::max(nodes[i].res, 1e-9);
      scratch.g_half[i] = scratch.g[i] / 2.0;
    }
    if (i == 0 || static_cast<std::size_t>(p) + 1 != i) {
      scratch.runs.push_back({static_cast<int>(i), p});
    }
  }
  scratch.runs.push_back({static_cast<int>(n), -1});
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
  s.g_half = scratch.g_half.data();
  s.runs = scratch.runs.data();
  s.num_runs = scratch.runs.size() - 1;
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
