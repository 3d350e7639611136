#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/variation.h"

namespace contango {

/// \file montecarlo.h
/// \brief Monte-Carlo variation engine: yield-aware skew/CLR analysis.
///
/// The driver fans `trials` randomized perturbations of a clock network
/// (see analysis/variation.h) across a worker pool and aggregates
/// streaming, order-independent statistics.  Trials are numbered, each
/// trial draws from its own RNG substream and writes its own result slot,
/// and partial statistics are merged in fixed block order — so the full
/// report is **bit-identical for any thread count**.  A zero variation
/// model reproduces the nominal corners exactly in every trial.

/// \brief Order-independent streaming accumulator: count, Welford
/// mean/variance, min/max.
///
/// add() streams one sample; merge() combines two accumulators with Chan's
/// parallel-variance formula.  Bit-exact reproducibility holds as long as
/// the *partition* of samples into accumulators, the order samples are
/// added and the *merge order* are fixed — the Monte-Carlo driver streams
/// each block's trials in trial order and merges the blocks in block index
/// order, independent of which thread ran which trial.
class StreamingStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  void merge(const StreamingStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    count_ += other.count_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  long count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  long count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  ///< sum of squared deviations from the running mean
  double min_ = std::numeric_limits<double>::max();
  double max_ = -std::numeric_limits<double>::max();
};

/// \brief Nearest-rank percentile: sorted[ceil(p/100 * n) - 1].
///
/// Deterministic (no interpolation, total order on finite doubles); the
/// conventional definition for yield reporting.  Throws on an empty sample
/// set or p outside (0, 100].
double percentile(std::vector<double> samples, double p);

/// \brief Total-function core of percentile(): `sorted` must already be
/// sorted ascending.
///
/// Returns NaN on an empty sample set instead of reading out of bounds
/// (the nearest-rank index underflows for n == 0); out-of-domain p —
/// negative, above 100, or NaN — is clamped into [0, 100] before any
/// integer conversion, pinning the rank into [1, n].  Callers that want
/// hard validation use percentile().
double sorted_percentile(const std::vector<double>& sorted, double p);

/// Distribution summary of one metric over all trials.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Metrics of one Monte-Carlo trial (indexed by trial number).
struct McTrial {
  Ps skew = 0.0;         ///< nominal-corner worst skew of the perturbed network
  Ps clr = 0.0;          ///< corner-to-corner latency range
  Ps max_latency = 0.0;  ///< nominal-corner max sink latency
  Ps worst_slew = 0.0;   ///< across all corners
  /// Worst window / inter-domain bound violation (0 when the benchmark's
  /// constraint block is trivial).
  Ps constraint_violation = 0.0;
  bool legal = false;    ///< no slew violation, every sink reached
};

/// Options of the Monte-Carlo driver.
struct McOptions {
  int trials = 256;
  /// Worker threads of the trials and of the nominal sweep; 0 picks
  /// hardware concurrency, 1 runs serially.  Any value produces
  /// bit-identical reports.
  int threads = 1;
  /// Yield target: a trial passes when skew <= skew_target, legal, and —
  /// under a non-trivial constraint block — every sink window and
  /// inter-domain bound holds.
  Ps skew_target = 10.0;
  /// Numerical options of the per-trial evaluation.
  EvalOptions eval;
};

/// Full Monte-Carlo report: nominal reference, per-metric distribution
/// summaries, yield, and the raw per-trial records (index = trial number).
struct McReport {
  std::string benchmark;
  int trials = 0;
  int threads = 1;  ///< worker count actually used
  VariationModel model;
  Ps skew_target = 0.0;

  EvalResult nominal;  ///< unperturbed evaluation of the same network

  MetricSummary skew;
  MetricSummary clr;
  MetricSummary max_latency;

  /// True when the benchmark carries a non-trivial constraint block; gates
  /// the constraint fields in to_json() so legacy reports stay
  /// byte-identical.
  bool constrained = false;

  double yield = 0.0;           ///< fraction of trials legal, skew <= target, constraints met
  double legal_fraction = 0.0;  ///< fraction of trials with no violation
  std::vector<McTrial> samples;
  double wall_seconds = 0.0;

  /// Stage-evaluation units — (stage x corner x transition) integrations —
  /// spent across all trials plus the nominal reference.
  long batched_stage_evals = 0;
  /// Always 0: kept only because the benchmark driver still sums it.
  static constexpr long scalar_stage_evals = 0;

  /// Serializes the report as a JSON object (io/json); `with_samples`
  /// includes the per-trial array (one object per trial).
  std::string to_json(bool with_samples = true) const;
};

/// \brief Runs the Monte-Carlo variation analysis on a synthesized tree.
///
/// Builds the RcNetlist once and sweeps it for the nominal reference
/// (LevelSweep, up to `options.threads` threads), then per trial: samples
/// the trial's perturbation from its substream, applies wire/pin scaling
/// to the worker's copy of the stages (copied once per worker; each trial
/// re-assigns the node values from the netlist's), sweeps every (corner x
/// transition) combination with per-stage supply offsets on one thread,
/// and records the trial's sample.  Each worker takes the next trial as soon as it is
/// free.  The samples then stream into per-block accumulators merged in
/// deterministic order.
///
/// \param bench the benchmark the tree was synthesized for
/// \param tree synthesized clock tree (unchanged)
/// \param model variation magnitudes + substream seed
/// \param options trial count, worker threads, skew target, eval options
McReport run_montecarlo(const Benchmark& bench, const ClockTree& tree,
                        const VariationModel& model, const McOptions& options = {});

}  // namespace contango
