#include "analysis/evaluate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/parallel.h"
#include "util/timer.h"

namespace contango {

Ps CornerTiming::max_latency() const {
  Ps best = -std::numeric_limits<double>::max();
  for (const auto& per_transition : sinks) {
    for (const SinkTiming& s : per_transition) {
      if (s.reached) best = std::max(best, s.latency);
    }
  }
  return best;
}

Ps CornerTiming::min_latency() const {
  Ps best = std::numeric_limits<double>::max();
  for (const auto& per_transition : sinks) {
    for (const SinkTiming& s : per_transition) {
      if (s.reached) best = std::min(best, s.latency);
    }
  }
  return best;
}

Ps CornerTiming::skew() const {
  Ps worst = 0.0;
  for (const auto& per_transition : sinks) {
    Ps lo = std::numeric_limits<double>::max();
    Ps hi = -std::numeric_limits<double>::max();
    bool any = false;
    for (const SinkTiming& s : per_transition) {
      if (!s.reached) continue;
      lo = std::min(lo, s.latency);
      hi = std::max(hi, s.latency);
      any = true;
    }
    if (any) worst = std::max(worst, hi - lo);
  }
  return worst;
}

Ps quantize_stage_slew(Ps slew) {
  // Scaling by a power of two is exact, and below 2^22 ps the scaled value
  // is below 2^52, so nearbyint rounds it exactly (ties to even in the
  // default rounding mode).  From 2^22 up, every double is a multiple of
  // 2^-30 already; the same test passes infinities and NaN through.
  if (!(std::fabs(slew) < 0x1p52 * kStageSlewGrid)) return slew;
  return std::nearbyint(slew / kStageSlewGrid) * kStageSlewGrid;
}

namespace {

/// \name Propagation helpers of LevelSweep::run()
/// @{

/// Event at a stage driver's input.
struct StageEvent {
  Ps time = 0.0;
  Ps slew = 0.0;
  Transition dir = Transition::kRise;  ///< direction at the driver input
};

/// The clock source is non-inverting; composite buffers invert.
Transition stage_output_dir(const Stage& stage, Transition in_dir) {
  if (!stage.driver_inverts) return in_dir;
  return (in_dir == Transition::kRise) ? Transition::kFall : Transition::kRise;
}

/// Effective driver view of `stage` under supply `vdd` driving `out_dir`.
struct DriverView {
  KOhm r_drv = 0.0;
  Ps intrinsic = 0.0;
};

DriverView stage_driver_view(const Stage& stage, const Technology& tech,
                             Volt vdd, Transition out_dir) {
  return DriverView{
      effective_driver_res(stage.driver_res_nom, tech, vdd, out_dir),
      effective_intrinsic(stage.driver_intrinsic_nom, tech, vdd)};
}

/// Fans one stage's tap timings out: sink taps land in `sinks` (one
/// corner's timings for one source transition), every tap's slew is
/// max-folded into `max_slew`, and buffer taps pair with the stage's
/// downstream entries in order and hand the child its input event through
/// `schedule(child, event)`, its slew on the stage-boundary grid
/// (quantize_stage_slew).  Sink slews and `max_slew` stay unrounded.
/// `taps` points at stage.taps.size() entries — one row of a kernel result
/// or a cache entry.
template <typename ScheduleFn>
void fan_out_taps(const Stage& stage, const StageEvent& ev, Transition out_dir,
                  const TapTiming* taps, std::vector<SinkTiming>& sinks,
                  Ps& max_slew, ScheduleFn&& schedule) {
  std::size_t next_stage = 0;
  for (std::size_t k = 0; k < stage.taps.size(); ++k) {
    const Tap& tap = stage.taps[k];
    max_slew = std::max(max_slew, taps[k].slew);
    if (tap.is_sink) {
      SinkTiming& st = sinks[static_cast<std::size_t>(tap.sink_index)];
      st.latency = ev.time + taps[k].delay;
      st.slew = taps[k].slew;
      st.reached = true;
    } else {
      const int child = stage.downstream_stages.at(next_stage++);
      schedule(child, StageEvent{ev.time + taps[k].delay,
                                 quantize_stage_slew(taps[k].slew), out_dir});
    }
  }
}

/// Constraint half of the aggregation: per-domain skews, window and
/// inter-domain bound violations.  A trivial block returns immediately, so
/// legacy benchmarks pay nothing and their results stay bit-identical.
/// Violations are evaluated at every (corner, transition) — a constraint
/// holds only if it holds everywhere — while the reported per-domain skews
/// use the nominal corner, mirroring `nominal_skew`.
void aggregate_constraints(EvalResult& result, const Benchmark& bench) {
  const TimingConstraints& cons = bench.constraints;
  if (cons.trivial()) return;

  const std::size_t num_domains = cons.num_domains();
  constexpr Ps kInf = std::numeric_limits<Ps>::infinity();
  result.domain_skews.assign(num_domains, 0.0);
  std::vector<Ps> lo(num_domains), hi(num_domains);

  for (std::size_t c = 0; c < result.corners.size(); ++c) {
    const CornerTiming& corner = result.corners[c];
    for (int t = 0; t < kNumTransitions; ++t) {
      const std::vector<SinkTiming>& sinks =
          corner.sinks[static_cast<std::size_t>(t)];
      std::fill(lo.begin(), lo.end(), kInf);
      std::fill(hi.begin(), hi.end(), -kInf);
      Ps global_lo = kInf;
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        if (!sinks[s].reached) continue;
        const std::uint32_t d = cons.domain_of(s);
        lo[d] = std::min(lo[d], sinks[s].latency);
        hi[d] = std::max(hi[d], sinks[s].latency);
        global_lo = std::min(global_lo, sinks[s].latency);
      }
      if (global_lo == kInf) continue;  // nothing reached in this combo

      if (c == 0) {
        for (std::size_t d = 0; d < num_domains; ++d) {
          if (hi[d] >= lo[d]) {
            result.domain_skews[d] =
                std::max(result.domain_skews[d], hi[d] - lo[d]);
          }
        }
      }

      if (!cons.sink_windows.empty()) {
        for (std::size_t s = 0; s < sinks.size(); ++s) {
          if (!sinks[s].reached) continue;
          const ArrivalWindow w = cons.window_of(s);
          if (w.unbounded()) continue;
          // Windows constrain the arrival relative to the earliest reached
          // sink: shift-invariant, since synthesis moves insertion delay
          // wholesale.
          const Ps r = sinks[s].latency - global_lo;
          const Ps v = std::max(w.lo - r, r - w.hi);
          if (v > result.worst_window_violation) {
            result.worst_window_violation = v;
          }
        }
      }

      for (const DomainBound& b : cons.domain_bounds) {
        if (hi[b.a] < lo[b.a] || hi[b.b] < lo[b.b]) continue;  // empty domain
        const Ps spread = std::max(hi[b.a] - lo[b.b], hi[b.b] - lo[b.a]);
        const Ps v = spread - b.bound;
        if (v > result.worst_domain_bound_violation) {
          result.worst_domain_bound_violation = v;
        }
      }
    }
  }
}

/// Shared aggregation tail of a CNE pass: derived metrics (worst slew,
/// reachability, skew, CLR, constraint violations) from the per-corner
/// timings.
void aggregate_corners(EvalResult& result, const Benchmark& bench) {
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
  if (result.corners.size() >= 2) {
    // Clock Latency Range (ISPD'09): greatest sink latency at the low
    // supply minus least sink latency at the nominal supply.
    result.clr = result.corners.back().max_latency() - result.corners.front().min_latency();
  } else {
    result.clr = result.nominal_skew;
  }
  aggregate_constraints(result, bench);
}

/// @}

}  // namespace

KOhm effective_driver_res(KOhm nominal, const Technology& tech, Volt vdd,
                          Transition output_transition) {
  const double corner = std::pow(tech.vdd_nom / vdd, tech.supply_alpha);
  const double asym = (output_transition == Transition::kRise)
                          ? tech.rise_fall_ratio
                          : 1.0 / tech.rise_fall_ratio;
  return nominal * corner * asym;
}

Ps effective_intrinsic(Ps nominal, const Technology& tech, Volt vdd) {
  return nominal * std::pow(tech.vdd_nom / vdd, tech.supply_alpha);
}

Evaluator::Evaluator(const Benchmark& bench, EvalOptions options)
    : bench_(bench), options_(options), sim_(options.transient) {
  sink_caps_.reserve(bench.sinks.size());
  for (const Sink& s : bench.sinks) sink_caps_.push_back(s.cap);
}

void account_capacitance(EvalResult& result, Ff total_cap, const Technology& tech) {
  result.total_cap = total_cap;
  result.cap_violation = tech.cap_limit > 0.0 && total_cap > tech.cap_limit;
}

void account_capacitance(EvalResult& result, const ClockTree& tree,
                         const Benchmark& bench, const std::vector<Ff>& sink_caps) {
  account_capacitance(result, tree.total_cap(bench.tech, sink_caps), bench.tech);
}

void Evaluator::add_sweep_work(long stage_evals, long stage_reuses,
                               double helper_cpu) {
  batched_stage_evals_.fetch_add(stage_evals, std::memory_order_relaxed);
  stage_reuses_.fetch_add(stage_reuses, std::memory_order_relaxed);
  helper_cpu_ns_.fetch_add(static_cast<std::int64_t>(helper_cpu * 1e9),
                           std::memory_order_relaxed);
}

void Evaluator::book_run(bool incremental) {
  sim_runs_.fetch_add(1, std::memory_order_relaxed);
  (incremental ? incremental_evals_ : full_evals_).fetch_add(1, std::memory_order_relaxed);
}

EvalResult Evaluator::evaluate(const ClockTree& tree) {
  book_run(/*incremental=*/false);
  RcNetlist net;
  net.build(tree, bench_, options_.extract);
  LevelSweep sweep;
  EvalResult result =
      sweep.run(*this, net, net.stages(), nullptr, options_.threads, /*reuse=*/false);
  add_sweep_work(sweep.last().sims, sweep.last().reuses, sweep.last().helper_cpu);
  account_capacitance(result, tree, bench_, sink_caps_);
  return result;
}

// -------------------------------------------------------------- LevelSweep --

EvalResult LevelSweep::run(const Evaluator& eval, const RcNetlist& net,
                           const std::vector<Stage>& stages,
                           const std::vector<Volt>* slot_vdd_delta,
                           int max_threads, bool reuse, Ps slew_cut) {
  const std::size_t slot_count = net.slot_count();
  if (stages.size() != slot_count) {
    throw std::invalid_argument("LevelSweep: " + std::to_string(stages.size()) +
                                " stages for " + std::to_string(slot_count) +
                                " slots");
  }
  if (reuse && &stages != &net.stages()) {
    throw std::invalid_argument("LevelSweep: reuse needs the netlist's own stages");
  }
  if (slot_vdd_delta && slot_vdd_delta->size() != slot_count) {
    throw std::invalid_argument("LevelSweep: slot_vdd_delta size " +
                                std::to_string(slot_vdd_delta->size()) +
                                " != slot count " + std::to_string(slot_count));
  }

  const Benchmark& bench = eval.benchmark();
  const TransientSimulator& sim = eval.simulator();
  const Ps source_input_slew = eval.options().source_input_slew;
  const std::vector<int>& topo = net.topo_slots();
  const std::vector<std::size_t>& levels = net.topo_levels();
  const std::size_t nc = bench.tech.corners.size();
  const std::size_t combos = nc * kNumTransitions;

  // Everything the sweep indexes by slot is sized up front, so workers on
  // distinct slots never reallocate shared containers.
  if (reuse && timings_.size() < slot_count) timings_.resize(slot_count);
  // Journal overwritten entries while an edit session is open; a journal
  // left over from an earlier session was kept implicitly.
  const std::uint64_t session = reuse ? net.session() : 0;
  if (session != journal_session_) {
    drop_journal();
    journal_session_ = session;
  }
  slot_max_slew_.assign(topo.size() * nc, 0.0);
  const int max_workers = max_threads > 0 ? max_threads : hardware_threads();
  if (workers_.size() < static_cast<std::size_t>(max_workers)) {
    workers_.resize(static_cast<std::size_t>(max_workers));
  }
  for (Worker& w : workers_) w.tally = Tally{};

  EvalResult result;
  result.corners.resize(nc);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    result.corners[ci].vdd = bench.tech.corners[ci];
    for (auto& per_transition : result.corners[ci].sinks) {
      per_transition.assign(bench.sinks.size(), SinkTiming{});
    }
  }

  // The sweep is slot-outer with one propagation front per (corner x
  // transition) combination (combo c owns the slice [c * slot_count,
  // (c + 1) * slot_count) of `events`/`scheduled`), so a slot's kernel
  // work across all combos can be handed to the batch kernel together.
  // Each combo's events depend only on upstream slots of the same combo,
  // each cache entry belongs to exactly one combo and each kernel row is
  // independent of the others in its batch, so the result is bit-identical
  // to a corner-outer propagation (tests/evaluate_reference.h).
  std::vector<StageEvent> events(combos * slot_count);
  std::vector<char> scheduled(combos * slot_count, 0);
  if (!topo.empty()) {
    const auto root = static_cast<std::size_t>(topo.front());
    for (std::size_t c = 0; c < combos; ++c) {
      events[c * slot_count + root] =
          StageEvent{0.0, source_input_slew,
                     static_cast<Transition>(c % kNumTransitions)};
      scheduled[c * slot_count + root] = 1;
    }
  }

  // Simulates (or replays) the slot at topo position `pos` and fans its
  // taps out.  Writes only slot-owned state (cache entries, slot_max_slew_
  // row), the events/flags of its children and its own sinks, plus `w` —
  // so slots of one level may run on any workers.
  const auto run_slot = [&](std::size_t pos, Worker& w) {
    const int slot = topo[pos];
    const auto s = static_cast<std::size_t>(slot);
    const Stage& stage = stages[s];
    const std::uint64_t version = net.version(slot);
    const std::size_t nt = stage.taps.size();

    std::vector<CachedTiming>* per_slot = nullptr;
    if (reuse) {
      per_slot = &timings_[s];
      if (per_slot->size() != combos) per_slot->assign(combos, CachedTiming{});
    }

    w.miss_combos.clear();
    w.miss_drives.clear();

    for (std::size_t ci = 0; ci < nc; ++ci) {
      const Volt vdd = slot_vdd_delta ? bench.tech.corners[ci] + (*slot_vdd_delta)[s]
                                      : bench.tech.corners[ci];
      for (int t = 0; t < kNumTransitions; ++t) {
        const std::size_t c = ci * kNumTransitions + static_cast<std::size_t>(t);
        // The stage graph (fixed between full rebuilds) must hand every
        // slot its event before the slot is processed — an ordering bug
        // must throw, not return plausible timings from a zero event.
        if (!scheduled[c * slot_count + s]) {
          throw std::logic_error("LevelSweep: stage scheduled out of order");
        }
        const StageEvent& ev = events[c * slot_count + s];

        if (reuse) {
          // Reuse is allowed exactly when every input of the simulation
          // matches the cached call: same stage contents (version), same
          // input direction (fixes r_drv via out_dir) and equal input slew
          // — a point of the stage-boundary grid, so an upstream change
          // that the rounding absorbs replays.  The corner and transition
          // are part of the cache key.
          CachedTiming& entry = (*per_slot)[c];
          if (entry.version == version && entry.in_dir == ev.dir &&
              entry.in_slew == ev.slew) {
            ++w.tally.reuses;
            continue;
          }
          if (session != 0 && entry.journaled_in != session) {
            // First overwrite in this session: move the entry into the
            // journal and take a spare one (its taps are rewritten below).
            if (w.journaled == w.journal.size()) w.journal.emplace_back();
            SavedTiming& saved = w.journal[w.journaled++];
            saved.slot = slot;
            saved.combo = static_cast<int>(c);
            std::swap(saved.entry, entry);
            entry.journaled_in = session;
          }
          entry.version = version;
          entry.in_dir = ev.dir;
          entry.in_slew = ev.slew;
        }
        const Transition out_dir = stage_output_dir(stage, ev.dir);
        const DriverView drv = stage_driver_view(stage, bench.tech, vdd, out_dir);
        w.miss_combos.push_back(static_cast<int>(c));
        w.miss_drives.push_back(BatchDrive{drv.r_drv, drv.intrinsic, ev.slew});
      }
    }

    // One kernel call over this slot's misses in combo order (without
    // reuse, every combo).  With reuse the rows go to their cache entries,
    // which the fan-out then reads; without it the fan-out reads row c.
    const std::size_t misses = w.miss_combos.size();
    if (misses > 0) {
      w.miss_taps.resize(misses * nt);
      sim.simulate_stage_batch(stage, w.miss_drives.data(), misses,
                               w.miss_taps.data(), w.scratch);
    }
    if (reuse) {
      for (std::size_t m = 0; m < misses; ++m) {
        CachedTiming& entry = (*per_slot)[static_cast<std::size_t>(w.miss_combos[m])];
        entry.taps.assign(
            w.miss_taps.begin() + static_cast<std::ptrdiff_t>(m * nt),
            w.miss_taps.begin() + static_cast<std::ptrdiff_t>((m + 1) * nt));
      }
    }
    w.tally.sims += static_cast<long>(misses);

    for (std::size_t ci = 0; ci < nc; ++ci) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const std::size_t c = ci * kNumTransitions + static_cast<std::size_t>(t);
        const StageEvent ev = events[c * slot_count + s];
        const TapTiming* taps =
            reuse ? (*per_slot)[c].taps.data() : w.miss_taps.data() + c * nt;
        fan_out_taps(stage, ev, stage_output_dir(stage, ev.dir), taps,
                     result.corners[ci].sinks[static_cast<std::size_t>(t)],
                     slot_max_slew_[pos * nc + ci],
                     [&](int child, const StageEvent& e) {
                       events[c * slot_count + static_cast<std::size_t>(child)] = e;
                       scheduled[c * slot_count + static_cast<std::size_t>(child)] = 1;
                     });
      }
    }
  };

  // Level sweep: every slot's parent sits in the level above, so once a
  // level is done the next one's inputs are final.  parallel_for joins its
  // helpers before returning, which orders each level's writes before the
  // next level's reads.  The helpers are borrowed from the process-wide
  // core budget, so a level runs inline on the caller when it is one slot
  // wide, when max_threads == 1, or when no core is free.  A thread takes
  // a second worker index only once the level's slots are all handed out,
  // so no more workers run slots, and grow their scratch, than the call
  // got threads.  With a slew cut, the rows of each finished level are
  // max-reduced into the running worst slew, and the sweep stops as soon
  // as it passes the cut with levels still to go.
  const bool has_cut = slew_cut < std::numeric_limits<Ps>::infinity();
  Ps swept_slew = 0.0;
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t d = 0; d + 1 < levels.size(); ++d) {
    const std::size_t begin = levels[d];
    const std::size_t end = levels[d + 1];
    const int num_workers = static_cast<int>(
        std::min(end - begin, static_cast<std::size_t>(max_workers)));
    std::atomic<std::size_t> next{begin};
    parallel_for(num_workers, num_workers, [&](int wi) {
      Worker& w = workers_[static_cast<std::size_t>(wi)];
      const bool helper = std::this_thread::get_id() != caller;
      const double cpu_before = helper ? thread_cpu_seconds() : 0.0;
      for (;;) {
        const std::size_t pos = next.fetch_add(1, std::memory_order_relaxed);
        if (pos >= end) break;
        run_slot(pos, w);
      }
      if (helper) w.tally.helper_cpu += thread_cpu_seconds() - cpu_before;
    });
    if (has_cut && d + 2 < levels.size()) {
      for (std::size_t i = begin * nc; i < end * nc; ++i) {
        swept_slew = std::max(swept_slew, slot_max_slew_[i]);
      }
      if (swept_slew > slew_cut) {
        result.stopped_early = true;
        break;
      }
    }
  }

  // Deterministic reductions, independent of how slots were split.
  for (std::size_t pos = 0; pos < topo.size(); ++pos) {
    for (std::size_t ci = 0; ci < nc; ++ci) {
      result.corners[ci].max_slew =
          std::max(result.corners[ci].max_slew, slot_max_slew_[pos * nc + ci]);
    }
  }
  last_ = Tally{};
  for (const Worker& w : workers_) {
    last_.sims += w.tally.sims;
    last_.reuses += w.tally.reuses;
    last_.helper_cpu += w.tally.helper_cpu;
  }

  aggregate_corners(result, bench);
  return result;
}

void LevelSweep::rollback_journal() {
  for (Worker& w : workers_) {
    for (std::size_t i = 0; i < w.journaled; ++i) {
      SavedTiming& saved = w.journal[i];
      std::swap(timings_[static_cast<std::size_t>(saved.slot)]
                        [static_cast<std::size_t>(saved.combo)],
                saved.entry);
    }
  }
  drop_journal();
}

void LevelSweep::drop_journal() {
  for (Worker& w : workers_) w.journaled = 0;
  journal_session_ = 0;
}

// ---------------------------------------------------- IncrementalEvaluator --

void IncrementalEvaluator::bind(const ClockTree& tree) {
  tree_ = &tree;
  net_.build(tree, eval_.bench_, eval_.options_.extract);
  // Slot versions are globally monotonic, so stale cache entries could
  // never be mistaken for fresh ones — clearing just releases memory.
  sweep_.clear_cache();
}

EvalResult IncrementalEvaluator::evaluate(Ps slew_cut, std::optional<Ff> total_cap) {
  if (!bound()) {
    throw std::logic_error("IncrementalEvaluator: evaluate before bind");
  }
  net_.refresh();
  EvalResult result = sweep_.run(eval_, net_, net_.stages(), nullptr,
                                 eval_.options_.threads, /*reuse=*/true, slew_cut);
  eval_.add_sweep_work(sweep_.last().sims, sweep_.last().reuses,
                       sweep_.last().helper_cpu);
  if (total_cap) {
    account_capacitance(result, *total_cap, eval_.bench_.tech);
  } else {
    account_capacitance(result, *tree_, eval_.bench_, eval_.sink_caps_);
  }

  eval_.book_run(/*incremental=*/true);
  return result;
}

Ps worst_latency_rise(const ClockTree& tree, const std::vector<NodeId>& sinks,
                      const EvalResult& baseline, const EvalResult& probed) {
  Ps worst = 0.0;
  for (NodeId s : sinks) {
    const auto sink = static_cast<std::size_t>(tree.node(s).sink_index);
    for (std::size_t c = 0; c < baseline.corners.size(); ++c) {
      for (std::size_t t = 0; t < kNumTransitions; ++t) {
        const auto& b = baseline.corners[c].sinks[t][sink];
        const auto& p = probed.corners[c].sinks[t][sink];
        if (b.reached && p.reached) worst = std::max(worst, p.latency - b.latency);
      }
    }
  }
  return worst;
}

}  // namespace contango
