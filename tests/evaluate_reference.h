// Test oracle for the Clock-Network Evaluation: the corner-outer scalar
// propagation — one corner, then one source transition, then every stage in
// topological order, one drive per kernel call — written against the
// one-drive integrator loop of transient_reference.h, plus the Monte-Carlo
// trial perturbation of a whole staged netlist.  Production evaluation
// (stage-outer, all combinations in one lane-interleaved kernel call, the
// variation applied to a worker's reused stage copies) must reproduce these
// numbers bit for bit.
//
// Every aggregate is recomputed here from its definition rather than with
// the production helpers, so a slip in either one shows as a mismatch.
// That includes the stage-boundary slew grid: the slew a buffer tap hands
// its child stage is rounded to the nearest multiple of 2^-30 ps (ties to
// even) by a plain ldexp/nearbyint line below, not by quantize_stage_slew;
// sink slews and max slews stay unrounded.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/variation.h"
#include "rctree/extract.h"
#include "transient_reference.h"

namespace contango {
namespace reference {

/// Per-sink timings, max slews and every derived metric of one CNE pass
/// over `net`, corner-outer.  Capacitance fields stay at their defaults.
inline EvalResult evaluate_netlist(const StagedNetlist& net, const Benchmark& bench,
                                   const TransientOptions& transient,
                                   Ps source_input_slew,
                                   const std::vector<Volt>* stage_vdd_delta = nullptr) {
  struct Event {
    Ps time = 0.0;
    Ps slew = 0.0;
    Transition dir = Transition::kRise;
    bool scheduled = false;
  };

  EvalResult result;
  for (const Volt vdd : bench.tech.corners) {
    CornerTiming corner;
    corner.vdd = vdd;
    for (auto& per_transition : corner.sinks) {
      per_transition.assign(bench.sinks.size(), SinkTiming{});
    }
    for (int t = 0; t < kNumTransitions; ++t) {
      std::vector<SinkTiming>& sinks = corner.sinks[static_cast<std::size_t>(t)];
      std::vector<Event> events(net.stages.size());
      if (!events.empty()) {
        events[0] = Event{0.0, source_input_slew, static_cast<Transition>(t), true};
      }
      for (std::size_t si = 0; si < net.stages.size(); ++si) {
        const Stage& stage = net.stages[si];
        const Event ev = events[si];
        if (!ev.scheduled) throw std::logic_error("reference: stage out of order");
        const Transition out_dir =
            !stage.driver_inverts ? ev.dir
            : ev.dir == Transition::kRise ? Transition::kFall
                                          : Transition::kRise;
        const Volt v = stage_vdd_delta ? vdd + (*stage_vdd_delta)[si] : vdd;
        const BatchDrive drive{
            effective_driver_res(stage.driver_res_nom, bench.tech, v, out_dir),
            effective_intrinsic(stage.driver_intrinsic_nom, bench.tech, v),
            ev.slew};
        std::vector<TapTiming> taps(stage.taps.size());
        simulate_stage_rows(transient, stage, &drive, 1, taps.data(), nullptr);

        std::size_t next_child = 0;
        for (std::size_t k = 0; k < stage.taps.size(); ++k) {
          corner.max_slew = std::max(corner.max_slew, taps[k].slew);
          const Ps arrival = ev.time + taps[k].delay;
          if (stage.taps[k].is_sink) {
            SinkTiming& s = sinks[static_cast<std::size_t>(stage.taps[k].sink_index)];
            s = SinkTiming{arrival, taps[k].slew, true};
          } else {
            const int child = stage.downstream_stages.at(next_child++);
            const Ps slew = std::ldexp(std::nearbyint(std::ldexp(taps[k].slew, 30)), -30);
            events[static_cast<std::size_t>(child)] = Event{arrival, slew, out_dir, true};
          }
        }
      }
    }
    result.corners.push_back(std::move(corner));
  }

  // Derived metrics, straight from their definitions.
  for (const CornerTiming& corner : result.corners) {
    result.worst_slew = std::max(result.worst_slew, corner.max_slew);
    for (const auto& per_transition : corner.sinks) {
      for (const SinkTiming& s : per_transition) {
        if (!s.reached) result.all_sinks_reached = false;
      }
    }
  }
  result.slew_violation = result.worst_slew > bench.tech.slew_limit;
  if (!result.corners.empty()) {
    result.nominal_skew = result.corners.front().skew();
    result.max_latency = result.corners.front().max_latency();
  }
  result.clr = result.corners.size() >= 2
                   ? result.corners.back().max_latency() -
                         result.corners.front().min_latency()
                   : result.nominal_skew;

  const TimingConstraints& cons = bench.constraints;
  if (cons.trivial()) return result;
  constexpr Ps kInf = std::numeric_limits<Ps>::infinity();
  const std::size_t nd = cons.num_domains();
  result.domain_skews.assign(nd, 0.0);
  for (std::size_t c = 0; c < result.corners.size(); ++c) {
    for (const auto& sinks : result.corners[c].sinks) {
      std::vector<Ps> lo(nd, kInf), hi(nd, -kInf);
      Ps first = kInf;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (!sinks[s].reached) continue;
        const std::uint32_t d = cons.domain_of(s);
        lo[d] = std::min(lo[d], sinks[s].latency);
        hi[d] = std::max(hi[d], sinks[s].latency);
        first = std::min(first, sinks[s].latency);
      }
      for (std::size_t d = 0; d < nd && c == 0; ++d) {
        if (hi[d] >= lo[d]) {
          result.domain_skews[d] = std::max(result.domain_skews[d], hi[d] - lo[d]);
        }
      }
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        const ArrivalWindow w = cons.window_of(s);
        if (!sinks[s].reached || w.unbounded()) continue;
        const Ps r = sinks[s].latency - first;
        result.worst_window_violation =
            std::max({result.worst_window_violation, w.lo - r, r - w.hi});
      }
      for (const DomainBound& b : cons.domain_bounds) {
        if (hi[b.a] < lo[b.a] || hi[b.b] < lo[b.b]) continue;
        result.worst_domain_bound_violation =
            std::max(result.worst_domain_bound_violation,
                     std::max(hi[b.a] - lo[b.b], hi[b.b] - lo[b.a]) - b.bound);
      }
    }
  }
  return result;
}

/// Full CNE of `tree`: extraction, the propagation above and the
/// capacitance check.
inline EvalResult evaluate_tree(const ClockTree& tree, const Benchmark& bench,
                                const EvalOptions& options = {}) {
  EvalResult result =
      evaluate_netlist(extract_stages(tree, bench, options.extract), bench,
                       options.transient, options.source_input_slew);
  std::vector<Ff> sink_caps;
  for (const Sink& s : bench.sinks) sink_caps.push_back(s.cap);
  result.total_cap = tree.total_cap(bench.tech, sink_caps);
  result.cap_violation =
      bench.tech.cap_limit > 0.0 && result.total_cap > bench.tech.cap_limit;
  return result;
}

/// One Monte-Carlo trial's perturbation applied to a copy of `base`:
/// wire R/C scale globally, pin capacitances (recorded per tap and per
/// driver) are exempt from the wire scaling, and sink pins take their
/// per-sink jitter factor.
inline StagedNetlist apply_variation(const StagedNetlist& base,
                                     const TrialVariation& v) {
  StagedNetlist out = base;
  const double rs = v.wire_r_scale;
  const double cs = v.wire_c_scale;
  for (Stage& stage : out.stages) {
    for (RcNode& node : stage.nodes) {
      node.res *= rs;
      node.cap *= cs;
    }
    stage.nodes[0].cap += stage.driver_pin_cap * (1.0 - cs);
    for (const Tap& tap : stage.taps) {
      const double pin_scale =
          tap.is_sink ? v.sink_cap_scale[static_cast<std::size_t>(tap.sink_index)]
                      : 1.0;
      stage.nodes[static_cast<std::size_t>(tap.rc_index)].cap +=
          tap.pin_cap * (pin_scale - cs);
    }
  }
  return out;
}

}  // namespace reference
}  // namespace contango
