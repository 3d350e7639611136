#include "analysis/montecarlo.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "io/json.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace contango {
namespace {

/// Trials per streaming block.  The block is the unit of order-independent
/// aggregation: each block's partial statistics stream its trials in trial
/// order and merge in block-index order, so the merged result is a pure
/// function of (model, trial count) — never of which worker ran a trial.
constexpr int kTrialsPerBlock = 32;

/// Per-block partial aggregates, merged in block order by the driver.
struct BlockStats {
  StreamingStats skew;
  StreamingStats clr;
  StreamingStats max_latency;
  long legal = 0;
  long pass = 0;  ///< legal and skew <= target
};

/// Sets `trial` (a copy of `base`) to one trial's perturbation of it: each
/// stage's nodes are re-assigned from the base (copy-assignment reuses
/// their storage, so a trial allocates nothing) and varied in place.
///
/// Wire R/C scale globally; pin capacitances (sink pins, buffer input and
/// output pins) are exempt from wire scaling — extraction records them per
/// tap/stage — and sink pins additionally take their per-sink jitter
/// factor.  With the zero model every adjustment is exactly 0.0 and the
/// copy is bit-identical to the base.
void apply_variation(const TrialVariation& v, const std::vector<Stage>& base,
                     std::vector<Stage>& trial) {
  const double rs = v.wire_r_scale;
  const double cs = v.wire_c_scale;
  for (std::size_t si = 0; si < base.size(); ++si) {
    Stage& stage = trial[si];
    stage.nodes = base[si].nodes;
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
}

MetricSummary summarize(const StreamingStats& stats, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());  // one sort serves all ranks
  MetricSummary s;
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.min = stats.min();
  s.max = stats.max();
  s.p50 = sorted_percentile(samples, 50.0);
  s.p95 = sorted_percentile(samples, 95.0);
  s.p99 = sorted_percentile(samples, 99.0);
  return s;
}

void write_summary(JsonWriter& w, const char* name, const MetricSummary& s) {
  w.key(name);
  w.begin_object();
  w.kv("mean", s.mean);
  w.kv("stddev", s.stddev);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("p99", s.p99);
  w.end_object();
}

}  // namespace

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double sorted_percentile(const std::vector<double>& sorted, double p) {
  // An empty sample set has no ranks: without this guard the nearest-rank
  // index `min(rank, size) - 1` underflows to SIZE_MAX (rank is 0 when
  // size is 0) and reads out of bounds.  NaN is the honest answer; the
  // table renderer prints it as "n/a" and io/json as null.
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  // Clamp p before the float->size_t conversion: casting a negative (or
  // NaN) rank would be undefined behavior, not merely out of domain.
  const double frac = std::isnan(p) ? 0.0 : std::clamp(p, 0.0, 100.0) / 100.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(frac * static_cast<double>(sorted.size())));
  return sorted[std::min(std::max<std::size_t>(rank, 1), sorted.size()) - 1];
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile: empty sample set");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile: p must be in (0, 100]");
  }
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, p);
}

McReport run_montecarlo(const Benchmark& bench, const ClockTree& tree,
                        const VariationModel& model, const McOptions& options) {
  if (options.trials <= 0) {
    throw std::invalid_argument("run_montecarlo: trials must be positive");
  }
  const Timer timer;
  McReport report;
  report.benchmark = bench.name;
  report.trials = options.trials;
  report.threads = options.threads <= 0 ? hardware_threads() : options.threads;
  report.model = model;
  report.skew_target = options.skew_target;
  report.constrained = !bench.constraints.trivial();

  // Slot i of a freshly built netlist is extract_stages() stage i, the
  // index sample_trial()'s per-stage supply offsets use.
  RcNetlist net;
  net.build(tree, bench, options.eval.extract);
  if (net.topo_slots().empty()) {
    throw std::invalid_argument("run_montecarlo: empty clock tree");
  }
  const std::size_t num_stages = net.slot_count();
  // Supplies the simulator, source slew and sink caps of every sweep.
  const Evaluator evaluator(bench, options.eval);

  // Nominal (unperturbed) reference, including the capacitance gate.
  report.nominal = LevelSweep().run(evaluator, net, net.stages(), nullptr,
                                    report.threads, /*reuse=*/false);
  account_capacitance(report.nominal, tree, bench, evaluator.sink_caps());

  const int trials = options.trials;
  report.samples.assign(static_cast<std::size_t>(trials), McTrial{});

  // Trials plus the nominal reference, in stage-evaluation units.
  report.batched_stage_evals = static_cast<long>(trials + 1) *
                               static_cast<long>(num_stages) *
                               static_cast<long>(bench.tech.corners.size()) *
                               kNumTransitions;

  // Trials are embarrassingly parallel: each draws from its own substream
  // and writes only its own sample.  Every worker keeps one sweep and one
  // copy of the stages, and takes the next trial from a shared counter, so
  // no worker idles while another still holds a queue of trials.  Each
  // trial sweeps on one thread, the rule run_suite() applies to its
  // workers: the trials already spread across the cores.
  const int workers = std::min(report.threads, trials);
  std::atomic<int> next{0};
  parallel_for(workers, workers, [&](int) {
    LevelSweep sweep;
    std::vector<Stage> trial_stages = net.stages();
    for (;;) {
      const int trial = next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= trials) break;
      const TrialVariation v = sample_trial(model, bench.tech, trial, num_stages,
                                            bench.sinks.size());
      apply_variation(v, net.stages(), trial_stages);
      const EvalResult eval = sweep.run(evaluator, net, trial_stages,
                                        &v.stage_vdd_delta, 1, /*reuse=*/false);
      McTrial& t = report.samples[static_cast<std::size_t>(trial)];
      t.skew = eval.nominal_skew;
      t.clr = eval.clr;
      t.max_latency = eval.max_latency;
      t.worst_slew = eval.worst_slew;
      t.constraint_violation = eval.constraint_violation();
      t.legal = !eval.slew_violation && eval.all_sinks_reached;
    }
  });

  // Determinism comes from the fixed trial->block partition and the
  // in-order merge, not from scheduling: each block streams its trials in
  // trial order, and the blocks merge in block order.
  const int num_blocks = (trials + kTrialsPerBlock - 1) / kTrialsPerBlock;
  std::vector<BlockStats> blocks(static_cast<std::size_t>(num_blocks));
  for (int trial = 0; trial < trials; ++trial) {
    const McTrial& t = report.samples[static_cast<std::size_t>(trial)];
    BlockStats& block = blocks[static_cast<std::size_t>(trial / kTrialsPerBlock)];
    block.skew.add(t.skew);
    block.clr.add(t.clr);
    block.max_latency.add(t.max_latency);
    if (t.legal) {
      ++block.legal;
      // A trial passes only when the global target *and* every sink
      // window / inter-domain bound hold (violation is identically 0
      // for a trivial constraint block).
      if (t.skew <= options.skew_target && t.constraint_violation <= 0.0) {
        ++block.pass;
      }
    }
  }

  StreamingStats skew_stats, clr_stats, latency_stats;
  long legal = 0, pass = 0;
  for (const BlockStats& block : blocks) {  // deterministic merge order
    skew_stats.merge(block.skew);
    clr_stats.merge(block.clr);
    latency_stats.merge(block.max_latency);
    legal += block.legal;
    pass += block.pass;
  }

  std::vector<double> skews, clrs, latencies;
  skews.reserve(report.samples.size());
  clrs.reserve(report.samples.size());
  latencies.reserve(report.samples.size());
  for (const McTrial& t : report.samples) {
    skews.push_back(t.skew);
    clrs.push_back(t.clr);
    latencies.push_back(t.max_latency);
  }
  report.skew = summarize(skew_stats, std::move(skews));
  report.clr = summarize(clr_stats, std::move(clrs));
  report.max_latency = summarize(latency_stats, std::move(latencies));
  report.legal_fraction = static_cast<double>(legal) / static_cast<double>(trials);
  report.yield = static_cast<double>(pass) / static_cast<double>(trials);
  report.wall_seconds = timer.seconds();
  return report;
}

std::string McReport::to_json(bool with_samples) const {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "contango_mc_report");
  w.kv("benchmark", benchmark);
  w.kv("trials", static_cast<long>(trials));
  w.kv("threads", static_cast<long>(threads));
  w.kv("seed", static_cast<unsigned long long>(model.seed));
  w.key("model");
  w.begin_object();
  w.kv("sigma_vdd", model.sigma_vdd);
  w.kv("sigma_wire_r", model.sigma_wire_r);
  w.kv("sigma_wire_c", model.sigma_wire_c);
  w.kv("sigma_sink_cap", model.sigma_sink_cap);
  w.end_object();
  w.kv("skew_target_ps", skew_target);
  w.key("nominal");
  w.begin_object();
  w.kv("skew_ps", nominal.nominal_skew);
  w.kv("clr_ps", nominal.clr);
  w.kv("max_latency_ps", nominal.max_latency);
  w.kv("worst_slew_ps", nominal.worst_slew);
  w.kv("total_cap_ff", nominal.total_cap);
  if (constrained) {
    w.kv("worst_window_violation_ps", nominal.worst_window_violation);
    w.kv("worst_domain_bound_violation_ps", nominal.worst_domain_bound_violation);
  }
  w.kv("legal", nominal.legal());
  w.end_object();
  write_summary(w, "skew_ps", skew);
  write_summary(w, "clr_ps", clr);
  write_summary(w, "max_latency_ps", max_latency);
  w.kv("yield", yield);
  w.kv("legal_fraction", legal_fraction);
  w.kv("wall_seconds", wall_seconds);
  w.kv("batched_stage_evals", batched_stage_evals);
  if (with_samples) {
    w.key("samples");
    w.begin_array();
    for (const McTrial& t : samples) {
      w.begin_object();
      w.kv("skew_ps", t.skew);
      w.kv("clr_ps", t.clr);
      w.kv("max_latency_ps", t.max_latency);
      w.kv("worst_slew_ps", t.worst_slew);
      if (constrained) w.kv("constraint_violation_ps", t.constraint_violation);
      w.kv("legal", t.legal);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

}  // namespace contango
