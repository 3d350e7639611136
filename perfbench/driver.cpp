// Repository benchmark driver: one process that links libcontango and times
// calls into the public functions of each layer from outside — netlist
// (generate, write, parse), cts (run_contango, pass timings, slacks),
// rctree (extraction, SoA build), analysis (full evaluation, Elmore, the
// transient kernel, Monte Carlo) and the cts/suite + util/parallel runner.
//
//   contango_perfbench --workload ti5k_flow|stock_families|mc_ti2k
//                      --seed N --seconds S --trace 0|1
//                      [--root DIR] [--trace-out FILE] [--perturb-rep K]
//
// Set-up (generating, writing and parsing the inputs, and synthesizing the
// Monte-Carlo tree) runs several times and reports its median.  The
// measured unit — one flow, one suite, or one Monte-Carlo run — then
// repeats until S seconds have passed, and every repetition's quality
// vector must equal the first one bit for bit.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop,
// then one more unit with spans recorded around every layer call plus the
// per-layer probes, writes the spans as a Chrome trace-event file and
// prints the per-layer metrics, including the tracing overhead.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `failed` counts operations that threw or broke the output check; any such
// failure also makes the exit code 1.  Results that ran but ended illegal
// or missed a timing constraint are reported in `failed_frac` instead.
// --perturb-rep K flips one bit of repetition K's quality vector so the
// benchmark's own tests can prove the output check trips.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/elmore.h"
#include "analysis/evaluate.h"
#include "analysis/montecarlo.h"
#include "analysis/transient.h"
#include "analysis/variation.h"
#include "cts/flow.h"
#include "cts/scenario.h"
#include "cts/slack.h"
#include "cts/suite.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "rctree/extract.h"
#include "rctree/soa.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace contango;

namespace {

/// Set-up repeats at least kSetupMinRepeats times and until it has taken
/// kSetupMinSeconds (at most kSetupMaxRepeats times), so that the median
/// of a cheap set-up still rests on enough samples.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 45;
constexpr double kSetupMinSeconds = 1.5;
constexpr int kTiFlowSinks = 5000;
/// ti5k_flow synthesizes one fixed chip, the TI generator's default seed
/// (the ROADMAP's ti5000), and takes --seed for the order of its sink list:
/// a chip drawn per seed spread the flow's stage-evals from 82k to 115k
/// over ten seeds, while every sink order gives the same work.
constexpr std::uint64_t kTiChipSeed = 77;
constexpr int kMcSinks = 2000;
/// mc_ti2k synthesizes one fixed chip (the TI generator's default seed) and
/// takes --seed for the variation draws: a chip drawn per seed changes the
/// tree, and with it the cost of every trial, by up to a quarter.
constexpr std::uint64_t kMcChipSeed = 77;
/// Four 32-trial blocks: one per worker at the four-thread cap.
constexpr int kMcTrials = 128;
/// Trials of the one-thread reference run; trial i depends only on
/// (seed, i), so they must equal the first trials of the measured run.
constexpr int kMcReferenceTrials = 32;
/// Yield target of mc_ti2k, between the seed-1 nominal skew and the tail
/// of its trial distribution so the seed-1 yield is neither 0 nor 1.
constexpr double kMcSkewTarget = 22.0;
/// stock_families draws its long pole, `mega`, at seed 1 whatever --seed
/// is: the suite's wall time is that one flow's, and a mega drawn per seed
/// spread it by 0.17 over ten seeds.  The other nine families take --seed.
constexpr const char* kLongPoleFamily = "mega";
constexpr std::uint64_t kLongPoleSeed = 1;
/// Trials of the Monte-Carlo probe run on the final trees of the flow
/// workloads in traced runs.
constexpr int kMcProbeTrials = 4;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------ trace --

/// In-memory span recorder written as a Chrome trace-event file at exit.
/// Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, now_us(), -1.0, 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id) {
    if (!on_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].dur_us =
        now_us() - spans_[static_cast<std::size_t>(id)].ts_us;
    stack_.pop_back();
  }

  /// Records an already finished span under `parent`; returns its id.
  int add(const std::string& name, double ts_us, double dur_us, int tid, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, ts_us, dur_us, tid, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Writes every span with its self time: its duration minus the part of
  /// it that the union of its children covers.
  bool write(const std::string& path) const {
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
      }
    }
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>> cover;
      for (int c : children[i]) {
        const Span& k = spans_[static_cast<std::size_t>(c)];
        const double lo = std::max(k.ts_us, s.ts_us);
        const double hi = std::min(k.ts_us + k.dur_us, s.ts_us + s.dur_us);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      double covered = 0.0, reach = -1e300;
      for (const auto& [lo, hi] : cover) {
        const double from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"self_us\":%.3f,\"parent\":%d}}",
                    s.tid, s.ts_us, s.dur_us, std::max(0.0, s.dur_us - covered), s.parent);
      out << (i ? "," : "") << "\n{\"name\":\"" << s.name << "\"," << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
    int tid;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on the calling (main) thread.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Runs `fn` inside a span named `name`; returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, const std::string& name, Fn&& fn) {
  Scope s(tracer, name);
  const double t0 = now_us();
  fn();
  return (now_us() - t0) * 1e-6;
}

/// "TWSZ#2" -> "twsz": the metric/span name of a pass.
std::string lower_name(const std::string& pass) {
  std::string name = pass.substr(0, pass.find('#'));
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return name;
}

/// Adds one child span per executed pass under the flow span `parent`,
/// placed back to back from the flow's start; whatever remains of the flow
/// span is the flow's unattributed time.
void add_pass_spans(Tracer& tracer, const FlowResult& flow, double flow_start_us,
                    int tid, int parent) {
  double t = flow_start_us;
  for (const PassTiming& p : flow.pass_timings) {
    tracer.add("cts." + lower_name(p.name), t, p.wall_seconds * 1e6, tid, parent);
    t += p.wall_seconds * 1e6;
  }
}

// ---------------------------------------------------------------- outputs --

/// Bit-exact record of the results that a pure speed-up must not change.
using Quality = std::vector<double>;

void push_flow_quality(Quality& q, const FlowResult& f) {
  const EvalResult& e = f.eval;
  q.insert(q.end(), {e.nominal_skew, e.clr, e.total_cap, e.worst_slew,
                     static_cast<double>(e.slew_violation),
                     static_cast<double>(e.cap_violation),
                     static_cast<double>(e.all_sinks_reached),
                     e.constraint_violation(), static_cast<double>(f.sim_runs)});
  for (const PassTiming& p : f.pass_timings) {
    q.push_back(static_cast<double>(p.sim_runs));
    q.push_back(static_cast<double>(p.batched_stage_evals + p.scalar_stage_evals));
  }
}

void push_summary(Quality& q, const MetricSummary& s) {
  q.insert(q.end(), {s.mean, s.stddev, s.min, s.max, s.p50, s.p95, s.p99});
}

void push_trials(Quality& q, const McReport& r, std::size_t count) {
  for (std::size_t i = 0; i < count && i < r.samples.size(); ++i) {
    const McTrial& t = r.samples[i];
    q.insert(q.end(), {t.skew, t.clr, t.max_latency, t.worst_slew,
                       t.constraint_violation, static_cast<double>(t.legal)});
  }
}

/// Per-trial records first, so a reference run over the first trials is a
/// prefix of the vector.
Quality mc_quality(const McReport& r) {
  Quality q;
  push_trials(q, r, r.samples.size());
  push_summary(q, r.skew);
  push_summary(q, r.clr);
  push_summary(q, r.max_latency);
  q.insert(q.end(), {r.yield, r.legal_fraction, r.nominal.nominal_skew, r.nominal.clr,
                     r.nominal.total_cap,
                     static_cast<double>(r.batched_stage_evals + r.scalar_stage_evals)});
  return q;
}

bool bit_equal(const Quality& a, const Quality& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Ran, but ended illegal (slew, cap, unreached sink) or missed a window or
/// domain bound.
bool flow_failed(const EvalResult& e) { return !e.legal() || !e.constraints_met(); }

// -------------------------------------------------------------- workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string trace_out;
  int perturb_rep = -1;
  int threads = 1;
};

/// One repetition of a workload's measured unit.
struct Unit {
  double wall = 0.0;
  double cpu = 0.0;  ///< process CPU seconds over the unit
  Quality quality;
  int attempted = 0;     ///< flows or Monte-Carlo runs
  int threw = 0;         ///< of those, how many threw
  int failed_flows = 0;  ///< threw, illegal, or constraint missed
  double skew_ps = 0.0, clr_ps = 0.0, cap_pf = 0.0;
  long stage_evals = 0;
  double longest_run_s = 0.0;
};

/// Per-layer numbers gathered by a traced unit and its probes.
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

/// Flow-level counters and pass times, summed over the flows given, each
/// paired with the stage-evals of one full evaluation of its final tree.
void add_flow_layers(LayerMetrics& m,
                     const std::vector<std::pair<const FlowResult*, long>>& flows) {
  static const char* kPasses[] = {"dme", "repair", "insert", "polarity",
                                  "tbsz", "twsz", "twsn", "bwsn"};
  std::map<std::string, double> pass_s;
  std::map<std::string, double> incr_units, incr_count, per_incr_full;
  double evals = 0.0, incremental = 0.0, unattributed = 0.0;
  for (const auto& [f, full_units] : flows) {
    double passes = 0.0;
    for (const PassTiming& p : f->pass_timings) {
      const std::string key = lower_name(p.name);
      pass_s[key] += p.wall_seconds;
      passes += p.wall_seconds;
      // Stage-evals of the pass's full evaluations are a whole tree each;
      // the rest went to its incremental evaluations.
      const double units = static_cast<double>(p.batched_stage_evals + p.scalar_stage_evals);
      incr_units[key] +=
          units - static_cast<double>(p.full_evals) * static_cast<double>(full_units);
      incr_count[key] += p.incremental_evals;
      per_incr_full[key] += static_cast<double>(p.incremental_evals) *
                            static_cast<double>(full_units);
    }
    evals += f->sim_runs;
    incremental += f->incremental_evals;
    unattributed += f->seconds - passes;
  }
  for (const char* p : kPasses) m[std::string("cts.") + p + "_s"] = {pass_s[p], "s"};
  m["cts.evals"] = {evals, "count"};
  m["cts.incremental_evals"] = {incremental, "count"};
  m["cts.unattributed_s"] = {unattributed, "s"};
  // Stage-evals spent by incremental evaluations over what as many full
  // evaluations of the final tree would spend: 1.0 means no reuse.
  for (const char* p : {"tbsz", "twsz", "twsn", "bwsn"}) {
    const double full = per_incr_full[p];
    m[std::string("analysis.resim_frac.") + p] = {full > 0 ? incr_units[p] / full : 0.0,
                                                  "ratio"};
  }
}

struct ProbeTotals {
  double extract_s = 0.0, soa_s = 0.0, eval_s = 0.0, elmore_s = 0.0, kernel_s = 0.0,
         slack_s = 0.0, mc_s = 0.0;
  long stages = 0, nodes = 0, mc_stage_evals = 0, mc_trials = 0;
  std::vector<double> mc_skews;
  long mc_pass = 0;
  bool eval_matches = true;
};

VariationModel mc_model(std::uint64_t seed) {
  VariationModel model;
  model.sigma_vdd = 0.05;
  model.sigma_wire_r = 0.03;
  model.sigma_wire_c = 0.03;
  model.sigma_sink_cap = 0.02;
  model.seed = seed;
  return model;
}

/// Times each layer on one finished flow: extraction, SoA build, a full
/// evaluation (checked against the flow's own), the Elmore sweep, a
/// replay of the transient kernel over every stage, the edge-slack
/// computation and, when `mc_trials` > 0, a short Monte-Carlo run.
/// Returns the stage-evals of one full evaluation of the tree.
long probe_tree(Tracer& tracer, const Benchmark& bench, const FlowResult& flow,
                int mc_trials, std::uint64_t seed, ProbeTotals& t) {
  const EvalOptions eopt;
  StagedNetlist net;
  t.extract_s += timed(tracer, "rctree.extract_stages",
                       [&] { net = extract_stages(flow.tree, bench, eopt.extract); });
  NetlistSoa soa;
  t.soa_s += timed(tracer, "rctree.soa_build", [&] { soa.build(net); });
  t.stages += static_cast<long>(net.stages.size());
  t.nodes += static_cast<long>(net.node_count());
  const long combos = static_cast<long>(bench.tech.corners.size()) * kNumTransitions;
  const long full_units = static_cast<long>(net.stages.size()) * combos;

  EvalResult full;
  t.eval_s += timed(tracer, "analysis.evaluate",
                    [&] { full = Evaluator(bench, eopt).evaluate(flow.tree); });
  t.eval_matches = t.eval_matches && full.nominal_skew == flow.eval.nominal_skew &&
                   full.clr == flow.eval.clr && full.total_cap == flow.eval.total_cap &&
                   full.worst_slew == flow.eval.worst_slew;

  double checksum = 0.0;
  t.elmore_s += timed(tracer, "analysis.elmore", [&] {
    for (const Stage& stage : net.stages) checksum += ElmoreStage(stage).total_cap();
  });

  t.kernel_s += timed(tracer, "analysis.simulate_stage_batch", [&] {
    const TransientSimulator sim(eopt.transient);
    TransientScratch scratch;
    std::vector<BatchDrive> drives;
    std::vector<TapTiming> out;
    for (std::size_t si = 0; si < net.stages.size(); ++si) {
      const Stage& stage = net.stages[si];
      drives.clear();
      for (const Volt vdd : bench.tech.corners) {
        for (const Transition dir : {Transition::kRise, Transition::kFall}) {
          drives.push_back({effective_driver_res(stage.driver_res_nom, bench.tech, vdd, dir),
                            effective_intrinsic(stage.driver_intrinsic_nom, bench.tech, vdd),
                            eopt.source_input_slew});
        }
      }
      out.resize(drives.size() * stage.taps.size());
      sim.simulate_stage_batch(soa.view(static_cast<int>(si)), drives.data(), drives.size(),
                               out.data(), scratch);
      if (!out.empty()) checksum += out.back().delay;
    }
  });

  t.slack_s += timed(tracer, "cts.compute_edge_slacks", [&] {
    SlackOptions sopt;
    sopt.constraints = &bench.constraints;
    checksum += compute_edge_slacks(flow.tree, full, sopt).slow.size();
  });

  if (mc_trials > 0) {
    McOptions mopt;
    mopt.trials = mc_trials;
    mopt.threads = 1;
    mopt.skew_target = kMcSkewTarget;
    McReport r;
    t.mc_s += timed(tracer, "analysis.run_montecarlo",
                    [&] { r = run_montecarlo(bench, flow.tree, mc_model(seed), mopt); });
    t.mc_trials += mc_trials;
    t.mc_stage_evals += r.batched_stage_evals + r.scalar_stage_evals;
    for (const McTrial& trial : r.samples) t.mc_skews.push_back(trial.skew);
    t.mc_pass += std::lround(r.yield * mc_trials);
  }
  // Keep the probe results observable so no call can be optimised away.
  if (!std::isfinite(checksum)) t.eval_matches = false;
  return full_units;
}

void add_mc_layers(LayerMetrics& m, double mc_s, long trials, long stage_evals,
                   std::vector<double> skews, double yield) {
  m["analysis.mc_trial_ms"] = {trials > 0 ? 1e3 * mc_s / static_cast<double>(trials) : 0.0,
                               "ms"};
  m["analysis.mc_stage_evals"] = {static_cast<double>(stage_evals), "count"};
  std::sort(skews.begin(), skews.end());
  m["mc_skew_p99_ps"] = {skews.empty() ? 0.0 : sorted_percentile(skews, 99.0), "ps"};
  m["mc_yield"] = {yield, "ratio"};
}

/// Probe timings and counts; the Monte-Carlo metrics too when the probe
/// ran trials.
void add_probe_layers(LayerMetrics& m, const ProbeTotals& t) {
  m["rctree.extract_s"] = {t.extract_s, "s"};
  m["rctree.soa_build_s"] = {t.soa_s, "s"};
  m["rctree.stages"] = {static_cast<double>(t.stages), "count"};
  m["rctree.nodes"] = {static_cast<double>(t.nodes), "count"};
  m["analysis.eval_full_s"] = {t.eval_s, "s"};
  m["analysis.elmore_s"] = {t.elmore_s, "s"};
  m["analysis.kernel_s"] = {t.kernel_s, "s"};
  m["analysis.kernel_share"] = {t.eval_s > 0 ? t.kernel_s / t.eval_s : 0.0, "ratio"};
  m["cts.slack_s"] = {t.slack_s, "s"};
  if (t.mc_trials > 0) {
    add_mc_layers(m, t.mc_s, t.mc_trials, t.mc_stage_evals, t.mc_skews,
                  static_cast<double>(t.mc_pass) / static_cast<double>(t.mc_trials));
  }
}

/// A workload: set-up that builds its inputs, and a measured unit.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs, adding the generate/parse seconds to `phase_s`.
  virtual void setup(Tracer& tracer, std::map<std::string, double>& phase_s) = 0;
  /// One-time output reference after set-up; false when a check failed.
  virtual bool reference(Tracer&) { return true; }
  virtual Unit run(Tracer& tracer) = 0;
  /// Per-layer metrics of the last unit `run` under an enabled tracer.
  virtual bool layers(Tracer& tracer, const Unit& unit, LayerMetrics& m) = 0;
  /// Checks the first unit against the reference (if any).
  virtual bool check_first(const Unit&) { return true; }
};

/// Generates `bench`, writes it as `.bench` text and parses it back.
Benchmark roundtrip(Tracer& tracer, const std::function<Benchmark()>& generate,
                    std::map<std::string, double>& phase_s, std::string* text_out) {
  Benchmark bench;
  phase_s["netlist.generate_s"] += timed(tracer, "netlist.generate", [&] { bench = generate(); });
  std::ostringstream text;
  timed(tracer, "netlist.write_benchmark", [&] { write_benchmark(bench, text); });
  std::istringstream in(text.str());
  Benchmark parsed;
  phase_s["netlist.parse_s"] +=
      timed(tracer, "netlist.read_benchmark", [&] { parsed = read_benchmark(in, bench.name); });
  if (text_out) *text_out = text.str();
  return parsed;
}

/// Fisher-Yates shuffle of the sink list, drawn from `seed`.
void shuffle_sinks(Benchmark& bench, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = bench.sinks.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(bench.sinks[i - 1], bench.sinks[j]);
  }
}

Unit flow_unit(const FlowResult& f) {
  Unit u;
  u.attempted = 1;
  u.failed_flows = flow_failed(f.eval) ? 1 : 0;
  push_flow_quality(u.quality, f);
  u.skew_ps = f.eval.nominal_skew;
  u.clr_ps = f.eval.clr;
  u.cap_pf = f.eval.total_cap * 1e-3;  // fF -> pF
  u.stage_evals = f.batched_stage_evals + f.scalar_stage_evals;
  u.longest_run_s = f.seconds;
  return u;
}

// ti5k_flow: one default-pipeline flow on the paper's Table V chip, its
// sinks listed in a seed-drawn order.
class TiFlow : public Workload {
 public:
  TiFlow(const Options& o) : o_(o) {}

  void setup(Tracer& tracer, std::map<std::string, double>& phase_s) override {
    Scope s(tracer, "setup");
    bench_ = roundtrip(
        tracer,
        [&] {
          Benchmark bench = generate_ti_like(kTiFlowSinks, kTiChipSeed);
          shuffle_sinks(bench, o_.seed);
          return bench;
        },
        phase_s, nullptr);
  }

  Unit run(Tracer& tracer) override {
    last_ = FlowResult{};  // peak memory must not depend on the repetition count
    const double c0 = cpu_seconds();
    const double t0 = now_us();
    FlowResult f;
    Unit u;
    {
      Scope s(tracer, "cts.run_contango");
      try {
        f = run_contango(bench_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run_contango threw: %s\n", e.what());
        u.attempted = u.threw = u.failed_flows = 1;
      }
      if (!u.threw) add_pass_spans(tracer, f, t0, 0, s.id());
    }
    const double wall = (now_us() - t0) * 1e-6;
    if (!u.threw) u = flow_unit(f);
    u.wall = wall;
    u.cpu = cpu_seconds() - c0;
    last_ = std::move(f);
    return u;
  }

  bool layers(Tracer& tracer, const Unit&, LayerMetrics& m) override {
    ProbeTotals t;
    long full_units = 0;
    {
      Scope s(tracer, "probes");
      full_units = probe_tree(tracer, bench_, last_, kMcProbeTrials, o_.seed, t);
    }
    add_flow_layers(m, {{&last_, full_units}});
    add_probe_layers(m, t);
    return t.eval_matches;
  }

 private:
  const Options& o_;
  Benchmark bench_;
  FlowResult last_;
};

// stock_families: the registered families through the suite runner.
class StockFamilies : public Workload {
 public:
  StockFamilies(const Options& o) : o_(o) {}

  void setup(Tracer& tracer, std::map<std::string, double>& phase_s) override {
    Scope s(tracer, "setup");
    const ScenarioRegistry& registry = ScenarioRegistry::builtin();
    suite_.clear();
    texts_.clear();
    for (const ScenarioRegistry::Family& family : registry.families()) {
      const std::uint64_t seed = family.name == kLongPoleFamily ? kLongPoleSeed : o_.seed;
      std::string text;
      suite_.push_back(roundtrip(
          tracer, [&] { return registry.make(family.name, seed); }, phase_s, &text));
      texts_.push_back(std::move(text));
    }
    // Fixed submission order: largest sink count first, so the long poles
    // start before the small flows fill the workers.
    std::vector<std::size_t> order(suite_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return suite_[a].sinks.size() > suite_[b].sinks.size();
    });
    std::vector<Benchmark> sorted;
    for (std::size_t i : order) sorted.push_back(std::move(suite_[i]));
    suite_ = std::move(sorted);
  }

  /// At seed 1 the generated text must be the checked-in benchmarks/*_s1.bench.
  bool reference(Tracer&) override {
    if (o_.seed != 1) return true;
    const ScenarioRegistry& registry = ScenarioRegistry::builtin();
    bool ok = true;
    for (std::size_t i = 0; i < registry.families().size(); ++i) {
      const std::string name = registry.families()[i].name + "_s1";
      const std::string path = o_.root + "/benchmarks/" + name + ".bench";
      std::ifstream in(path, std::ios::binary);
      std::ostringstream file;
      file << in.rdbuf();
      if (!in || file.str() != texts_[i]) {
        std::fprintf(stderr, "seed-1 self-check: %s differs from the generated text\n",
                     path.c_str());
        ok = false;
      }
    }
    return ok;
  }

  Unit run(Tracer& tracer) override {
    last_ = SuiteReport{};  // peak memory must not depend on the repetition count
    SuiteOptions sopt;
    sopt.threads = o_.threads;
    std::mutex mu;
    std::map<std::string, std::pair<double, int>> started;
    std::map<std::thread::id, int> tids;
    if (tracer.on()) {
      sopt.on_run_start = [&](const SuiteRun& r) {
        std::lock_guard<std::mutex> lock(mu);
        const auto id = std::this_thread::get_id();
        if (!tids.count(id)) tids.emplace(id, static_cast<int>(tids.size()) + 1);
        started[r.benchmark] = {now_us(), tids[id]};
      };
    }
    const double c0 = cpu_seconds();
    const double t0 = now_us();
    SuiteReport report;
    {
      Scope s(tracer, "cts.run_suite");
      report = run_suite(suite_, sopt);
      for (const SuiteRun& r : report.runs) {
        const auto it = started.find(r.benchmark);
        if (it == started.end()) continue;
        const auto [start, tid] = it->second;
        const int run = tracer.add("cts.run_contango " + r.benchmark, start, r.seconds * 1e6,
                                   tid, s.id());
        if (r.ok) add_pass_spans(tracer, r.result, start, tid, run);
      }
    }
    Unit u;
    u.wall = (now_us() - t0) * 1e-6;
    u.cpu = cpu_seconds() - c0;
    double skew = 0.0, clr = 0.0, cap = 0.0;
    for (const SuiteRun& r : report.runs) {
      ++u.attempted;
      if (!r.ok) {
        std::fprintf(stderr, "%s threw: %s\n", r.benchmark.c_str(), r.error.c_str());
        ++u.threw;
        ++u.failed_flows;
        u.quality.push_back(-1.0);
        continue;
      }
      const Unit f = flow_unit(r.result);
      u.failed_flows += f.failed_flows;
      u.quality.insert(u.quality.end(), f.quality.begin(), f.quality.end());
      skew += f.skew_ps;
      clr += f.clr_ps;
      cap += f.cap_pf;
      u.stage_evals += f.stage_evals;
      u.longest_run_s = std::max(u.longest_run_s, r.seconds);
    }
    const double n = static_cast<double>(std::max(1, u.attempted - u.threw));
    u.skew_ps = skew / n;
    u.clr_ps = clr / n;
    u.cap_pf = cap / n;
    last_ = std::move(report);
    return u;
  }

  bool layers(Tracer& tracer, const Unit&, LayerMetrics& m) override {
    ProbeTotals t;
    std::vector<std::pair<const FlowResult*, long>> flows;
    {
      Scope s(tracer, "probes");
      for (std::size_t i = 0; i < last_.runs.size(); ++i) {
        const FlowResult& f = last_.runs[i].result;
        if (!last_.runs[i].ok) continue;
        flows.emplace_back(&f, probe_tree(tracer, suite_[i], f, kMcProbeTrials, o_.seed, t));
      }
    }
    add_flow_layers(m, flows);
    add_probe_layers(m, t);
    return t.eval_matches;
  }

 private:
  const Options& o_;
  std::vector<Benchmark> suite_;
  std::vector<std::string> texts_;
  SuiteReport last_;
};

// mc_ti2k: Monte Carlo over a synthesized Table V-style chip.
class McTi : public Workload {
 public:
  McTi(const Options& o) : o_(o) {}

  void setup(Tracer& tracer, std::map<std::string, double>& phase_s) override {
    Scope s(tracer, "setup");
    bench_ = roundtrip(
        tracer, [&] { return generate_ti_like(kMcSinks, kMcChipSeed); }, phase_s, nullptr);
    Scope f(tracer, "cts.run_contango");
    const double t0 = now_us();
    flow_ = run_contango(bench_);
    add_pass_spans(tracer, flow_, t0, 0, f.id());
  }

  bool reference(Tracer& tracer) override {
    Scope s(tracer, "analysis.run_montecarlo reference");
    McOptions mopt = options();
    mopt.trials = kMcReferenceTrials;
    mopt.threads = 1;
    const McReport r = run_montecarlo(bench_, flow_.tree, mc_model(o_.seed), mopt);
    reference_.clear();
    push_trials(reference_, r, r.samples.size());
    return true;
  }

  /// The first trials of the measured run against the one-thread run.
  bool check_first(const Unit& u) override {
    return u.quality.size() >= reference_.size() &&
           std::equal(reference_.begin(), reference_.end(), u.quality.begin(),
                      [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; });
  }

  Unit run(Tracer& tracer) override {
    last_ = McReport{};  // peak memory must not depend on the repetition count
    const double c0 = cpu_seconds();
    const double t0 = now_us();
    McReport r;
    {
      Scope s(tracer, "analysis.run_montecarlo");
      r = run_montecarlo(bench_, flow_.tree, mc_model(o_.seed), options());
    }
    Unit u;
    u.wall = (now_us() - t0) * 1e-6;
    u.cpu = cpu_seconds() - c0;
    u.attempted = 1;
    u.quality = mc_quality(r);
    u.skew_ps = r.nominal.nominal_skew;
    u.clr_ps = r.nominal.clr;
    u.cap_pf = r.nominal.total_cap * 1e-3;
    u.stage_evals = r.batched_stage_evals + r.scalar_stage_evals;
    u.longest_run_s = u.wall;
    last_ = std::move(r);
    return u;
  }

  bool layers(Tracer& tracer, const Unit& unit, LayerMetrics& m) override {
    ProbeTotals t;
    long full_units = 0;
    {
      Scope s(tracer, "probes");
      full_units = probe_tree(tracer, bench_, flow_, 0, o_.seed, t);
    }
    add_flow_layers(m, {{&flow_, full_units}});
    add_probe_layers(m, t);
    std::vector<double> skews;
    for (const McTrial& trial : last_.samples) skews.push_back(trial.skew);
    add_mc_layers(m, unit.wall, last_.trials, unit.stage_evals, skews, last_.yield);
    return t.eval_matches;
  }

 private:
  McOptions options() const {
    McOptions mopt;
    mopt.trials = kMcTrials;
    mopt.threads = o_.threads;
    mopt.skew_target = kMcSkewTarget;
    return mopt;
  }

  const Options& o_;
  Benchmark bench_;
  FlowResult flow_;
  Quality reference_;
  McReport last_;
};

// ------------------------------------------------------------------- main --

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: contango_perfbench --workload ti5k_flow|stock_families|mc_ti2k "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--trace-out FILE] "
               "[--perturb-rep K]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") o.workload = val;
      else if (key == "--seed") o.seed = std::stoull(val);
      else if (key == "--seconds") o.seconds = std::stod(val);
      else if (key == "--trace") o.trace = std::stoi(val) != 0;
      else if (key == "--root") o.root = val;
      else if (key == "--trace-out") o.trace_out = val;
      else if (key == "--perturb-rep") o.perturb_rep = std::stoi(val);
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  o.threads = std::min(hardware_threads(), 4);
  if (o.trace_out.empty()) {
    o.trace_out = "perfbench-trace-" + o.workload + "-s" + std::to_string(o.seed) + ".json";
  }
  return o;
}

void print_result(bool correct, long attempted, long failed, const LayerMetrics& m) {
  std::printf("%-32s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, v] : m) {
    std::printf("%-32s %18.6f  %s\n", name.c_str(), v.first, v.second.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v.first) ? v.first : 0.0);
    json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + v.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  Log::set_level(LogLevel::kError);

  std::unique_ptr<Workload> w;
  if (o.workload == "ti5k_flow") w = std::make_unique<TiFlow>(o);
  else if (o.workload == "stock_families") w = std::make_unique<StockFamilies>(o);
  else if (o.workload == "mc_ti2k") w = std::make_unique<McTi>(o);
  else usage("unknown workload " + o.workload);

  Tracer off(false);
  Tracer tracer(o.trace);
  long failed = 0;
  try {
    // Set-up, repeated; the last repetition's inputs are kept.
    std::vector<double> setup_s;
    std::map<std::string, std::vector<double>> phases;
    double setup_total = 0.0;
    for (int k = 0; k < kSetupMaxRepeats; ++k) {
      const bool last = k + 1 == kSetupMaxRepeats ||
                        (k + 1 >= kSetupMinRepeats && setup_total >= kSetupMinSeconds);
      std::map<std::string, double> phase_s;
      const double t0 = now_us();
      w->setup(last ? tracer : off, phase_s);
      setup_s.push_back((now_us() - t0) * 1e-6);
      setup_total += setup_s.back();
      for (const auto& [name, s] : phase_s) phases[name].push_back(s);
      if (last) break;
    }
    if (!w->reference(tracer)) ++failed;

    // Measured unit, repeated for the requested time with tracing off.
    // Peak memory through set-up and the first repetition: later
    // repetitions only add allocator slack, and their number varies.
    double rss_mb = 0.0;
    std::vector<Unit> units;
    const double start = now_us();
    do {
      units.push_back(w->run(off));
      if (units.size() == 1) rss_mb = peak_rss_mb();
      Unit& u = units.back();
      if (static_cast<int>(units.size()) - 1 == o.perturb_rep && !u.quality.empty()) {
        std::uint64_t bits;
        std::memcpy(&bits, &u.quality[0], sizeof bits);
        bits ^= 1;
        std::memcpy(&u.quality[0], &bits, sizeof bits);
      }
    } while ((now_us() - start) * 1e-6 < o.seconds);

    long attempted = 0, failed_flows = 0;
    std::vector<double> walls;
    for (std::size_t i = 0; i < units.size(); ++i) {
      const Unit& u = units[i];
      attempted += u.attempted;
      failed_flows += u.failed_flows;
      const bool matches = bit_equal(u.quality, units[0].quality) &&
                           (i > 0 || w->check_first(u));
      if (!matches) {
        std::fprintf(stderr, "output check: repetition %zu differs from the reference\n", i);
        failed += u.attempted;
      } else {
        failed += u.threw;
      }
      walls.push_back(u.wall);
    }
    const Unit& ref = units[0];

    LayerMetrics m;
    if (!o.trace) {
      m["setup_s"] = {median(setup_s), "s"};
      m["wall_s"] = {median(walls), "s"};
      m["peak_rss_mb"] = {rss_mb, "MB"};
      m["cap_pf"] = {ref.cap_pf, "pF"};
    } else {
      // One traced unit, then the per-layer probes on its results.
      Unit traced;
      {
        Scope s(tracer, "measured");
        traced = w->run(tracer);
      }
      attempted += traced.attempted;
      if (!bit_equal(traced.quality, ref.quality)) {
        std::fprintf(stderr, "output check: traced repetition differs\n");
        failed += traced.attempted;
      }
      if (!w->layers(tracer, traced, m)) {
        std::fprintf(stderr, "output check: probe evaluation differs from the flow's\n");
        ++failed;
      }
      // Skew and CLR repeat exactly per seed but spread far wider across
      // seeds than any end-to-end bound allows, so they are per-layer.
      m["skew_ps"] = {traced.skew_ps, "ps"};
      m["clr_ps"] = {traced.clr_ps, "ps"};
      m["netlist.generate_s"] = {median(phases["netlist.generate_s"]), "s"};
      m["netlist.parse_s"] = {median(phases["netlist.parse_s"]), "s"};
      m["failed_frac"] = {static_cast<double>(failed_flows + traced.failed_flows) /
                              static_cast<double>(std::max<long>(1, attempted)),
                          "ratio"};
      m["analysis.stage_evals"] = {static_cast<double>(traced.stage_evals), "count"};
      m["analysis.us_per_stage_eval"] = {
          traced.stage_evals > 0 ? 1e6 * traced.cpu / static_cast<double>(traced.stage_evals)
                                 : 0.0,
          "us"};
      const double workers = static_cast<double>(o.threads);
      m["suite.cpu_s"] = {traced.cpu, "s"};
      m["suite.concurrency"] = {traced.cpu / traced.wall, "ratio"};
      m["suite.longest_run_s"] = {traced.longest_run_s, "s"};
      m["suite.idle_frac"] = {1.0 - traced.cpu / (workers * traced.wall), "ratio"};
      m["trace.overhead_frac"] = {traced.wall / median(walls) - 1.0, "ratio"};
      if (!tracer.write(o.trace_out)) {
        std::fprintf(stderr, "cannot write trace file %s\n", o.trace_out.c_str());
        ++failed;
      } else {
        std::fprintf(stderr, "trace written to %s\n", o.trace_out.c_str());
      }
    }
    print_result(failed == 0, attempted, failed, m);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  return failed == 0 ? 0 : 1;
}
