#include "cts/pipeline.h"

#include <cctype>
#include <utility>

#include "util/log.h"
#include "util/timer.h"

namespace contango {
namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t pos = s.find(sep, begin);
    if (pos == std::string::npos) {
      out.push_back(s.substr(begin));
      return out;
    }
    out.push_back(s.substr(begin, pos - begin));
    begin = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ PassRegistry --

void PassRegistry::add(const std::string& name, Factory factory) {
  if (name.empty()) {
    throw std::invalid_argument("pass name must not be empty");
  }
  if (!factory) {
    throw std::invalid_argument("pass '" + name + "' needs a factory");
  }
  if (contains(name)) {
    throw std::invalid_argument("pass '" + name + "' is already registered");
  }
  entries_.emplace_back(name, std::move(factory));
}

bool PassRegistry::contains(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return true;
  }
  return false;
}

std::unique_ptr<Pass> PassRegistry::create(const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.first == name) return entry.second();
  }
  throw PipelineError("unknown pass '" + name + "' (known passes: " +
                      join(names(), ", ") + ")");
}

std::vector<std::string> PassRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.first);
  return out;
}

const PassRegistry& PassRegistry::builtin() {
  static const PassRegistry* registry = [] {
    auto* r = new PassRegistry();
    register_builtin_passes(*r);
    return r;
  }();
  return *registry;
}

// ------------------------------------------------------------ spec parsing --

std::vector<PassSpecItem> parse_pipeline_spec(const std::string& spec) {
  if (trim(spec).empty()) {
    throw PipelineError("empty pipeline spec");
  }
  std::vector<PassSpecItem> items;
  const std::vector<std::string> tokens = split(spec, ',');
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string token = trim(tokens[i]);
    if (token.empty()) {
      throw PipelineError("empty pass name at position " + std::to_string(i + 1) +
                          " of pipeline spec '" + spec + "' (stray comma?)");
    }
    const std::vector<std::string> segments = split(token, ':');
    PassSpecItem item;
    item.name = trim(segments[0]);
    if (item.name.empty()) {
      throw PipelineError("empty pass name in pipeline item '" + token + "'");
    }
    for (std::size_t s = 1; s < segments.size(); ++s) {
      const std::string segment = trim(segments[s]);
      const std::size_t eq = segment.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == segment.size()) {
        throw PipelineError("malformed parameter '" + segment +
                            "' in pipeline item '" + token +
                            "' (expected key=value)");
      }
      item.params.emplace_back(trim(segment.substr(0, eq)),
                               trim(segment.substr(eq + 1)));
    }
    items.push_back(std::move(item));
  }
  return items;
}

bool pipeline_spec_contains(const std::string& spec, const std::string& pass) {
  for (const PassSpecItem& item : parse_pipeline_spec(spec)) {
    if (item.name == pass) return true;
  }
  return false;
}

std::string pipeline_spec_without(const std::string& spec,
                                  const std::string& pass) {
  std::string out;
  for (const PassSpecItem& item : parse_pipeline_spec(spec)) {
    if (item.name == pass) continue;
    if (!out.empty()) out += ",";
    out += item.name;
    for (const auto& kv : item.params) {
      out += ":" + kv.first + "=" + kv.second;
    }
  }
  if (out.empty()) {
    throw PipelineError("removing pass '" + pass + "' from pipeline spec '" +
                        spec + "' leaves no passes");
  }
  return out;
}

std::string default_pipeline_spec() {
  return "dme,repair,insert,polarity,tbsz,twsz,twsn,bwsn";
}

std::string resolved_pipeline_spec(const FlowOptions& options) {
  const std::string spec = trim(options.pipeline);
  return spec.empty() ? default_pipeline_spec() : spec;
}

// ---------------------------------------------------------------- Pipeline --

Pipeline Pipeline::from_spec(const std::string& spec,
                             const PassRegistry& registry) {
  Pipeline pipeline;
  pipeline.spec_ = trim(spec);
  for (const PassSpecItem& item : parse_pipeline_spec(spec)) {
    std::unique_ptr<Pass> pass = registry.create(item.name);
    for (const auto& kv : item.params) {
      pass->set_param(kv.first, kv.second);
    }
    pipeline.passes_.push_back(std::move(pass));
  }
  return pipeline;
}

Pipeline Pipeline::from_options(const FlowOptions& options,
                                const PassRegistry& registry) {
  return from_spec(resolved_pipeline_spec(options), registry);
}

std::vector<std::string> Pipeline::pass_names() const {
  std::vector<std::string> out;
  out.reserve(passes_.size());
  for (const auto& pass : passes_) out.push_back(pass->name());
  return out;
}

FlowResult Pipeline::run(const Benchmark& bench, const FlowOptions& options) {
  FlowContext ctx(bench, options);
  ctx.result.pipeline_spec = spec_;

  for (const auto& pass : passes_) {
    // Pass boundaries are the flow's cancellation points: the tree, the
    // incremental engine and the accumulated result are all consistent
    // here, so stopping loses nothing but the passes that never ran.
    if (options.cancel.cancelled()) {
      throw CancelledError("flow cancelled before pass '" +
                           std::string(pass->name()) + "'");
    }
    const bool gated = pass->objective() != PassObjective::kNone;
    // The first optimization pass needs an incumbent to improve on; the
    // evaluation it triggers is the INITIAL snapshot (a Table III row).
    if (gated) ctx.ensure_initial();

    const std::string stage_name = ctx.unique_stage_name(pass->display_name());
    const Evaluator& evaluator = ctx.eval;
    const int sims_before = evaluator.sim_runs();
    const int full_before = evaluator.full_evals();
    const int incremental_before = evaluator.incremental_evals();
    const long batched_before = evaluator.batched_stage_evals();
    const long reuses_before = evaluator.stage_reuses();
    const IvcCounts ivc_before = ctx.ivc();
    const double cpu_before = thread_cpu_seconds();
    const double helper_cpu_before = evaluator.helper_cpu_seconds();
    Timer wall;

    if (gated) {
      // Whole-pass IVC safety net: micro-steps inside the stock passes are
      // already gated through FlowContext::try_accept and can only improve,
      // so this never fires for them — but a pass that bypasses the gate
      // and leaves the flow worse than it found it is rolled back here,
      // uniformly, instead of trusting every pass to guard itself.
      ClockTree saved_tree = ctx.tree;
      const EvalResult saved_eval = ctx.current();
      pass->run(ctx);
      const bool regressed =
          pass->objective() == PassObjective::kClr
              ? ctx.current().clr > saved_eval.clr
              : ctx.current().nominal_skew > saved_eval.nominal_skew;
      const bool violates =
          (ctx.current().slew_violation &&
           ctx.current().worst_slew > saved_eval.worst_slew + 1e-6) ||
          (ctx.current().cap_violation &&
           ctx.current().total_cap > saved_eval.total_cap + 1e-6);
      if (regressed || violates) {
        Log::info("contango[%s] %s: rolled back (objective regressed)",
                  bench.name.c_str(), stage_name.c_str());
        ctx.restore_saved(std::move(saved_tree), saved_eval);
      }
      ctx.snapshot(stage_name);
    } else {
      pass->run(ctx);
      // Construction passes mutate the tree outside the IVC gates; the
      // incremental engine rebuilds at the next evaluation.
      ctx.note_tree_mutated();
    }

    PassTiming timing;
    timing.name = stage_name;
    timing.wall_seconds = wall.seconds();
    timing.cpu_seconds = (thread_cpu_seconds() - cpu_before) +
                         (evaluator.helper_cpu_seconds() - helper_cpu_before);
    timing.sim_runs = evaluator.sim_runs() - sims_before;
    timing.full_evals = evaluator.full_evals() - full_before;
    timing.incremental_evals = evaluator.incremental_evals() - incremental_before;
    timing.batched_stage_evals = evaluator.batched_stage_evals() - batched_before;
    timing.stage_reuses = evaluator.stage_reuses() - reuses_before;
    timing.ivc = ctx.ivc() - ivc_before;
    ctx.result.pass_timings.push_back(std::move(timing));
  }

  // Construction-only pipelines still end with a valid evaluation and the
  // INITIAL snapshot, exactly like the legacy flow.
  ctx.ensure_initial();

  const Evaluator& evaluator = ctx.eval;
  FlowResult result = std::move(ctx.result);
  result.tree = std::move(ctx.tree);
  result.eval = ctx.current();
  result.sim_runs = evaluator.sim_runs();
  result.full_evals = evaluator.full_evals();
  result.incremental_evals = evaluator.incremental_evals();
  result.batched_stage_evals = evaluator.batched_stage_evals();
  result.stage_reuses = evaluator.stage_reuses();
  result.ivc = ctx.ivc();
  result.helper_cpu_seconds = evaluator.helper_cpu_seconds();
  result.seconds = ctx.timer().seconds();
  return result;
}

}  // namespace contango
