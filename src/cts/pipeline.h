#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cts/flow.h"
#include "cts/pass.h"

namespace contango {

/// \file pipeline.h
/// \brief Pass pipelines over the Contango flow.
///
/// A pipeline is built from a textual spec — comma-separated pass names
/// with optional `pass:key=value` parameter overrides:
///
///     dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn     (the default flow)
///     dme,repair,insert,polarity,twsn:rounds=20:unit=10  (ablation variant)
///
/// Benchmark drivers bind specs to the CONTANGO_PIPELINE env knob
/// (cts/suite.h), which is how the paper's Table III ablations — "run the
/// flow with stages removed" — become one-line experiments.

/// Error type of spec parsing, pass lookups (make_pass, cts/pass.h) and
/// parameter overrides.
/// The message always names the offending token/pass/parameter.
class PipelineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed element of a pipeline spec.
struct PassSpecItem {
  std::string name;  ///< pass name, e.g. "twsn"
  /// `key=value` overrides in spec order, e.g. {{"rounds","20"}}.
  std::vector<std::pair<std::string, std::string>> params;
};

/// \brief Parses a pipeline spec into items (syntax only — names are
/// checked against the stock passes by Pipeline::from_spec).
///
/// Grammar: `item(,item)*` with `item = name(:key=value)*`.  Whitespace
/// around items, names, keys and values is ignored.
/// \throws PipelineError for an empty spec, an empty item (stray comma) or
///         a malformed parameter segment
std::vector<PassSpecItem> parse_pipeline_spec(const std::string& spec);

/// True when `spec` contains a pass named `pass`.
/// \throws PipelineError when the spec itself is malformed
bool pipeline_spec_contains(const std::string& spec, const std::string& pass);

/// \brief `spec` re-serialized with every pass named `pass` removed.
///
/// Parameter overrides of the remaining passes are preserved and
/// whitespace is normalized — the single-pass-removed ablation sweep
/// (bench_table3_ablation) builds its variants with this.
/// \throws PipelineError when the spec is malformed, or when removing the
///         pass would leave the pipeline empty
std::string pipeline_spec_without(const std::string& spec,
                                  const std::string& pass);

/// The spec of the full `run_contango` sequence:
/// `dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn`.
std::string default_pipeline_spec();

/// `options.pipeline` when non-empty, otherwise default_pipeline_spec() —
/// the spec run_contango() resolves to.  Drivers print this so their
/// output is self-describing.
std::string resolved_pipeline_spec(const FlowOptions& options = {});

/// \brief An executable sequence of passes.
///
/// Execution semantics (all IVC gating is centralized here and in
/// FlowContext, cts/pass.h):
///   * before the first optimization pass (and again after the last pass)
///     the tree is evaluated and the "INITIAL" snapshot recorded;
///   * every optimization pass changes the tree only through the IVC gate
///     (FlowContext::try_accept), which keeps or undoes each step; the
///     Pipeline keeps what the pass leaves and records a StageSnapshot
///     named after the pass (unique-ified to "TWSZ#2", ... on repeats);
///   * every pass gets a FlowResult::pass_timings entry: wall seconds,
///     thread-CPU seconds and evaluation ("SPICE-run") count.
class Pipeline {
 public:
  /// \brief Builds a pipeline from a spec of stock passes (make_pass).
  /// \throws PipelineError on syntax errors, unknown pass names or bad
  ///         parameter overrides
  static Pipeline from_spec(const std::string& spec);

  /// Builds the pipeline resolved_pipeline_spec(options) describes.
  static Pipeline from_options(const FlowOptions& options = {});

  /// \brief Checks every pass's parameters against `bench` (Pass::check),
  /// so a spec that cannot run on a workload is rejected before it is
  /// queued or started.
  /// \throws PipelineError naming the pass, the parameter and the benchmark
  void check(const Benchmark& bench) const;

  /// Executes the passes over a fresh FlowContext and finalizes the result
  /// (tree, eval, totals, pipeline_spec).  A pipeline may be run any number
  /// of times; runs are independent.
  /// \throws PipelineError when check(bench) fails, before any pass runs
  FlowResult run(const Benchmark& bench, const FlowOptions& options = {});

  /// The spec this pipeline was built from.
  const std::string& spec() const { return spec_; }

  std::size_t size() const { return passes_.size(); }

 private:
  std::string spec_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace contango
