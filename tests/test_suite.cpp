#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "cts/suite.h"
#include "netlist/generators.h"
#include "util/parallel.h"

namespace contango {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);

  // The pool stays usable after wait().
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, InlineModeRunsOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int count = 0;  // no atomic needed: inline mode never spawns workers
  pool.submit([&count] { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, CoversEachIndexExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    std::vector<std::atomic<int>> hits(57);
    parallel_for(57, threads, [&hits](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
  parallel_for(0, 4, [](int) { FAIL() << "no iterations expected"; });
}

TEST(ParallelFor, RethrowsOnTheCallerAfterJoiningEveryThread) {
  constexpr int kN = 200;
  for (int threads : {1, 3, 8}) {
    for (int throw_at : {0, kN - 5}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, throw at " +
                   std::to_string(throw_at));
      std::vector<std::atomic<int>> hits(kN);
      std::atomic<int> running{0};
      try {
        parallel_for(kN, threads, [&](int i) {
          running.fetch_add(1);
          hits[static_cast<std::size_t>(i)].fetch_add(1);
          if (i == throw_at) {
            running.fetch_sub(1);
            throw std::logic_error("boom at " + std::to_string(i));
          }
          running.fetch_sub(1);
        });
        ADD_FAILURE() << "the exception was swallowed";
      } catch (const std::logic_error& e) {
        EXPECT_EQ(std::string(e.what()), "boom at " + std::to_string(throw_at));
      }
      // Every worker has finished by the time the exception reaches the
      // caller, and no index ran twice.
      EXPECT_EQ(running.load(), 0);
      EXPECT_EQ(hits[static_cast<std::size_t>(throw_at)].load(), 1);
      for (const auto& h : hits) EXPECT_LE(h.load(), 1);
      // Serially, nothing after the throwing index runs.
      if (threads == 1) {
        for (int i = throw_at + 1; i < kN; ++i) {
          EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 0);
        }
      }
    }
  }
}

/// Thread ids of the helpers that ran iterations of fn, the caller excluded.
template <typename Fn>
std::set<std::thread::id> helper_ids(int n, int threads, Fn&& fn) {
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(n, threads, [&](int i) {
    fn(i);
    if (std::this_thread::get_id() == caller) return;
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  return ids;
}

/// parallel_for borrows persistent pool threads instead of spawning: the
/// helpers of back-to-back calls all come from one small fixed set.
TEST(ParallelFor, HelpersComeFromOnePersistentPool) {
  std::set<std::thread::id> seen;
  for (int call = 0; call < 200; ++call) {
    const std::set<std::thread::id> ids = helper_ids(16, 0, [](int) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
    seen.insert(ids.begin(), ids.end());
  }
  EXPECT_LE(static_cast<int>(seen.size()), hardware_threads() - 1);
  EXPECT_EQ(CoreBudget::global().in_use(), 0);  // every token came back
}

/// A parallel_for issued on a pool helper runs inline on that helper, so
/// helpers never wait on the pool and nesting cannot deadlock.
TEST(ParallelFor, NestedCallOnAHelperRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> nested_on_helpers{0};
  std::atomic<int> inner_total{0};
  std::atomic<bool> inline_everywhere{true};
  parallel_for(16, 0, [&](int) {
    const std::thread::id self = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    parallel_for(32, 0, [&](int) {
      inner_total.fetch_add(1);
      if (self != caller && std::this_thread::get_id() != self) {
        inline_everywhere = false;
      }
    });
    if (self != caller) nested_on_helpers.fetch_add(1);
  });
  EXPECT_EQ(inner_total.load(), 16 * 32);
  EXPECT_TRUE(inline_everywhere.load());
  if (hardware_threads() > 1) EXPECT_GT(nested_on_helpers.load(), 0);
}

/// Helpers need free core tokens: with the whole budget held elsewhere a
/// call runs wholly on its caller.
TEST(ParallelFor, RunsOnTheCallerWhenEveryTokenIsHeld) {
  CoreBudget& budget = CoreBudget::global();
  const int held = budget.try_acquire(budget.capacity());
  ASSERT_EQ(held, budget.capacity());
  const std::set<std::thread::id> ids = helper_ids(64, 0, [](int) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  budget.release(held);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(budget.in_use(), 0);
}

/// A blocked acquire() gets the next free token before any try_acquire()
/// does, so sweeps re-borrowing at every level cannot starve it.
TEST(CoreBudget, BlockedAcquireHasPriorityOverTryAcquire) {
  CoreBudget budget(2);
  EXPECT_EQ(budget.try_acquire(5), 2);
  std::thread waiter([&budget] { budget.acquire(); });
  while (budget.waiting() == 0) std::this_thread::yield();
  budget.release(1);
  EXPECT_EQ(budget.try_acquire(1), 0);  // reserved for the waiter
  waiter.join();
  EXPECT_EQ(budget.in_use(), 2);
  EXPECT_EQ(budget.peak(), 2);
  budget.release(2);
  EXPECT_EQ(budget.try_acquire(5), 2);
}

TEST(Suite, EmptySuite) {
  const SuiteReport report = run_suite({});
  EXPECT_TRUE(report.runs.empty());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.total_sim_runs(), 0);
}

/// The acceptance test of the runner: a 4-thread run must be bit-identical
/// to a 1-thread run of the same benchmark list — same stage snapshots,
/// same sink latencies and slews at every corner, same simulation counts.
TEST(Suite, FourThreadsMatchSerialBitForBit) {
  std::vector<Benchmark> suite;
  for (int n : {80, 120, 160, 200}) suite.push_back(generate_ti_like(n));

  SuiteOptions options;
  options.threads = 1;
  const SuiteReport serial = run_suite(suite, options);
  options.threads = 4;
  const SuiteReport parallel = run_suite(suite, options);

  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 4);
  ASSERT_EQ(serial.runs.size(), suite.size());
  ASSERT_EQ(parallel.runs.size(), suite.size());

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const SuiteRun& s = serial.runs[i];
    const SuiteRun& p = parallel.runs[i];
    SCOPED_TRACE(s.benchmark);

    // Input-order stability: slot i holds benchmark i for both runs.
    EXPECT_EQ(s.benchmark, suite[i].name);
    EXPECT_EQ(p.benchmark, suite[i].name);
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_TRUE(p.ok) << p.error;

    // Stage snapshots: identical metrics (wall times excluded).
    ASSERT_EQ(s.result.stages.size(), p.result.stages.size());
    for (std::size_t k = 0; k < s.result.stages.size(); ++k) {
      const StageSnapshot& ss = s.result.stages[k];
      const StageSnapshot& ps = p.result.stages[k];
      EXPECT_EQ(ss.name, ps.name);
      EXPECT_EQ(ss.skew, ps.skew);
      EXPECT_EQ(ss.clr, ps.clr);
      EXPECT_EQ(ss.max_latency, ps.max_latency);
      EXPECT_EQ(ss.cap, ps.cap);
      EXPECT_EQ(ss.sim_runs, ps.sim_runs);
    }
    EXPECT_EQ(s.result.sim_runs, p.result.sim_runs);

    // Sink timings: identical latency and slew for every sink at every
    // (corner, transition) pair.
    ASSERT_EQ(s.result.eval.corners.size(), p.result.eval.corners.size());
    for (std::size_t c = 0; c < s.result.eval.corners.size(); ++c) {
      for (int t = 0; t < kNumTransitions; ++t) {
        const auto& ssinks = s.result.eval.corners[c].sinks[static_cast<std::size_t>(t)];
        const auto& psinks = p.result.eval.corners[c].sinks[static_cast<std::size_t>(t)];
        ASSERT_EQ(ssinks.size(), psinks.size());
        for (std::size_t j = 0; j < ssinks.size(); ++j) {
          EXPECT_EQ(ssinks[j].latency, psinks[j].latency);
          EXPECT_EQ(ssinks[j].slew, psinks[j].slew);
          EXPECT_EQ(ssinks[j].reached, psinks[j].reached);
        }
      }
    }
  }

  // The report renders through io/table and carries the aggregate counters.
  EXPECT_EQ(serial.total_sim_runs(), parallel.total_sim_runs());
  EXPECT_FALSE(parallel.table().empty());
  EXPECT_GT(parallel.cpu_seconds(), 0.0);
}

/// The report with every timing value and the worker count zeroed: what
/// must match bit for bit between runs of one suite.
std::string untimed_json(SuiteReport report) {
  report.threads = 0;
  report.wall_seconds = report.process_cpu_seconds = 0.0;
  for (SuiteRun& run : report.runs) {
    run.seconds = 0.0;
    run.result.helper_cpu_seconds = 0.0;
    for (PassTiming& p : run.result.pass_timings) p.wall_seconds = p.cpu_seconds = 0.0;
  }
  return report.to_json();
}

/// A suite never starts more workers than it has benchmarks, whatever it
/// was asked for, and stays bit-identical to the serial run.
TEST(Suite, ShortSuiteStartsOneWorkerPerBenchmark) {
  const std::vector<Benchmark> suite{generate_ti_like(80), generate_ti_like(120)};
  SuiteOptions options;
  options.threads = 1;
  const SuiteReport serial = run_suite(suite, options);
  options.threads = 64;
  const SuiteReport wide = run_suite(suite, options);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(wide.threads, 2);
  ASSERT_TRUE(wide.all_ok());
  EXPECT_EQ(untimed_json(wide), untimed_json(serial));
}

/// Suite workers and their sweeps' helpers draw from one budget of
/// hardware_threads() tokens, even with three workers per core.
TEST(Suite, NeverHoldsMoreCoreTokensThanCores) {
  const int cores = hardware_threads();
  const std::vector<Benchmark> suite(static_cast<std::size_t>(3 * cores),
                                     generate_ti_like(60));
  SuiteOptions options;
  options.threads = 3 * cores;
  const SuiteReport report = run_suite(suite, options);
  EXPECT_TRUE(report.all_ok());
  const CoreBudget& budget = CoreBudget::global();
  EXPECT_EQ(budget.capacity(), cores);
  EXPECT_GE(budget.peak(), 1);
  EXPECT_LE(budget.peak(), cores);
  EXPECT_EQ(budget.in_use(), 0);
}

/// With flow.eval.threads left at 0 a flow's level sweeps borrow the cores
/// the suite leaves free: a lone flow gets helpers, and so does the long
/// pole of a suite once its short flows are done.  eval.threads = 1 keeps
/// every sweep on its worker.
TEST(Suite, FlowsShareTheCoresWithTheirLevelSweeps) {
  const int cores = hardware_threads();
  const auto helper_cpu = [](const SuiteRun& run) {
    EXPECT_TRUE(run.ok) << run.error;
    return run.result.helper_cpu_seconds;
  };

  SuiteOptions options;
  options.threads = cores;
  const std::vector<Benchmark> lone{generate_ti_like(160)};
  if (cores > 1) EXPECT_GT(helper_cpu(run_suite(lone, options).runs[0]), 0.0);

  std::vector<Benchmark> long_pole{generate_ti_like(1200)};
  long_pole.resize(static_cast<std::size_t>(cores), generate_ti_like(40));
  const SuiteReport mixed = run_suite(long_pole, options);
  if (cores > 1) EXPECT_GT(helper_cpu(mixed.runs[0]), 0.0);

  options.flow.eval.threads = 1;
  EXPECT_EQ(helper_cpu(run_suite(lone, options).runs[0]), 0.0);
}

TEST(Suite, MonteCarloPassAddsColumnsAndStaysDeterministic) {
  std::vector<Benchmark> suite;
  for (int n : {60, 90}) suite.push_back(generate_ti_like(n));

  SuiteOptions options;
  options.threads = 1;
  options.mc_trials = 8;
  options.variation.sigma_vdd = 0.05;
  options.variation.seed = 11;

  const SuiteReport serial = run_suite(suite, options);
  options.threads = 4;
  const SuiteReport parallel = run_suite(suite, options);

  ASSERT_EQ(serial.runs.size(), 2u);
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const SuiteRun& s = serial.runs[i];
    const SuiteRun& p = parallel.runs[i];
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_TRUE(s.has_mc);
    ASSERT_TRUE(p.has_mc);
    EXPECT_EQ(s.mc.trials, 8);
    // The MC pass inherits the runner's determinism: suite thread count
    // must not move a single bit of the variation statistics.
    EXPECT_EQ(s.mc.skew.mean, p.mc.skew.mean);
    EXPECT_EQ(s.mc.skew.p99, p.mc.skew.p99);
    EXPECT_EQ(s.mc.clr.p95, p.mc.clr.p95);
    EXPECT_EQ(s.mc.yield, p.mc.yield);
  }
  // MC trials are CNE passes and count toward the suite's sim total.
  long flow_sims = 0;
  for (const SuiteRun& r : serial.runs) flow_sims += r.result.sim_runs;
  EXPECT_EQ(serial.total_sim_runs(), flow_sims + 2 * 8);

  // The text table grows the MC columns only when MC ran.
  EXPECT_NE(serial.table().find("Yield%"), std::string::npos);
  EXPECT_NE(serial.table().find("MC p95"), std::string::npos);
  const SuiteReport plain = run_suite({suite[0]});
  EXPECT_EQ(plain.table().find("Yield%"), std::string::npos);
}

TEST(Suite, WritesJsonReportToRequestedPath) {
  const std::string path = ::testing::TempDir() + "contango_suite_report.json";
  std::vector<Benchmark> suite{generate_ti_like(60)};

  SuiteOptions options;
  options.threads = 1;
  options.mc_trials = 4;
  options.json_report_path = path;
  const SuiteReport report = run_suite(suite, options);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "report not written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json, report.to_json() + "\n");
  EXPECT_NE(json.find("\"type\":\"contango_suite_report\""), std::string::npos);
  EXPECT_NE(json.find("\"benchmark\":"), std::string::npos);
  EXPECT_NE(json.find("\"mc\":"), std::string::npos);
  EXPECT_EQ(json.find("\"samples\""), std::string::npos);  // summaries only

  // Balanced containers: the writer closed everything it opened.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());

  // An unwritable path fails loudly, not silently.
  options.json_report_path = "/nonexistent_dir_xyz/report.json";
  EXPECT_THROW(run_suite(suite, options), std::runtime_error);
}

TEST(Suite, PipelineSpecFlowsIntoRunsAndJson) {
  std::vector<Benchmark> suite{generate_ispd_like(ispd09_suite_params(3))};
  SuiteOptions options;
  options.threads = 1;
  options.flow.pipeline = "dme,repair,insert,polarity";
  const SuiteReport report = run_suite(suite, options);
  ASSERT_TRUE(report.all_ok());
  EXPECT_EQ(report.runs[0].result.pipeline_spec, options.flow.pipeline);
  ASSERT_EQ(report.runs[0].result.pass_timings.size(), 4u);
  EXPECT_EQ(report.runs[0].result.pass_timings[0].name, "DME");

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"pipeline_spec\":\"dme,repair,insert,polarity\""),
            std::string::npos);
  EXPECT_NE(json.find("\"passes\":["), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"cpu_seconds\":"), std::string::npos);

  // A malformed spec throws before any run starts.
  options.flow.pipeline = "dme,bogus";
  EXPECT_THROW(run_suite(suite, options), std::runtime_error);
  // So does a parameter one of the benchmarks cannot take.
  options.flow.pipeline = "dme:wire_width=99,repair,insert,polarity";
  EXPECT_THROW(run_suite(suite, options), PipelineError);

  // A syntactically valid spec that never builds a tree is a per-run
  // failure (recorded, no crash), since up-front validation cannot know
  // which passes build trees.
  options.flow.pipeline = "twsz,twsn";
  const SuiteReport no_tree = run_suite(suite, options);
  ASSERT_EQ(no_tree.runs.size(), 1u);
  EXPECT_FALSE(no_tree.all_ok());
  EXPECT_NE(no_tree.runs[0].error.find("tree"), std::string::npos)
      << no_tree.runs[0].error;
}

TEST(Suite, InvalidBenchmarkRejectedBeforeAnyRun) {
  // Every run reports the benchmark's content hash, which checks what the
  // writers check; a benchmark failing that is refused up front, naming
  // the field, instead of throwing inside a worker.
  std::vector<Benchmark> suite{make_scenario("ring", 1, 16),
                               make_scenario("ring", 2, 16)};
  suite[1].sinks[3].cap = -1.0;
  SuiteOptions options;
  options.threads = 2;
  std::atomic<int> started{0};
  options.on_run_start = [&started](const SuiteRun&) { ++started; };
  try {
    run_suite(suite, options);
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cap is -1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(started.load(), 0);
}

/// Scoped setenv/unsetenv so env tests cannot leak into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(SuiteEnv, ValidValuesParse) {
  ScopedEnv threads("CONTANGO_THREADS", "3");
  ScopedEnv trials("CONTANGO_MC_TRIALS", "16");
  ScopedEnv sigma("CONTANGO_MC_SIGMA_VDD", "0.07");
  ScopedEnv pipeline("CONTANGO_PIPELINE", "dme,repair,insert,polarity,twsn");
  const SuiteOptions options = suite_options_from_env();
  EXPECT_EQ(options.threads, 3);
  EXPECT_EQ(options.mc_trials, 16);
  EXPECT_DOUBLE_EQ(options.variation.sigma_vdd, 0.07);
  EXPECT_EQ(options.flow.pipeline, "dme,repair,insert,polarity,twsn");
}

TEST(SuiteEnv, MalformedNumericValuesRejectedNamingTheVariable) {
  {
    ScopedEnv bad("CONTANGO_THREADS", "abc");
    try {
      suite_options_from_env();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScopedEnv bad("CONTANGO_MC_TRIALS", "12x");
    EXPECT_THROW(suite_options_from_env(), std::runtime_error);
  }
  {
    ScopedEnv bad("CONTANGO_MC_SIGMA_VDD", "five percent");
    try {
      suite_options_from_env();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_MC_SIGMA_VDD"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SuiteEnv, NegativeCountsRejected) {
  {
    ScopedEnv bad("CONTANGO_MC_TRIALS", "-5");
    try {
      suite_options_from_env();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_MC_TRIALS"),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScopedEnv bad("CONTANGO_THREADS", "-1");
    EXPECT_THROW(suite_options_from_env(), std::runtime_error);
  }
}

/// An illegal result is reported as such, in the table's Legal column and
/// the JSON's illegal_runs, while all_ok still only means "did not throw".
/// A legal result within the kernel's slew error of the limit (uniform_s1
/// ends 0.01 ps under it) stays legal and is flagged slew_marginal.
TEST(Suite, ReportsIllegalResults) {
  std::vector<Benchmark> suite;
  for (const char* family : {"obstacle_dense", "usefulskew", "uniform"}) {
    suite.push_back(make_scenario(family, 1));
  }
  const SuiteReport report = run_suite(suite);
  ASSERT_EQ(report.runs.size(), 3u);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.illegal_runs(), 2);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"illegal_runs\":2"), std::string::npos);
  EXPECT_FALSE(report.runs[0].slew_marginal);
  EXPECT_FALSE(report.runs[1].slew_marginal);
  EXPECT_TRUE(report.runs[2].slew_marginal);
  EXPECT_TRUE(report.runs[2].result.eval.legal());
  EXPECT_NE(json.find("\"legal\":true,\"slew_marginal\":true"), std::string::npos);
  EXPECT_EQ(json.find("\"legal\":false,\"slew_marginal\":true"), std::string::npos);

  // The Legal column is left-aligned, so its cells start where its
  // header does, on every row.
  const std::string table = report.table();
  const std::size_t column = table.find("Legal");
  ASSERT_NE(column, std::string::npos) << table;
  auto legal = [&](const std::string& benchmark) {
    const std::size_t row = table.find("\n" + benchmark + " ");
    if (row == std::string::npos) return std::string("(no row)");
    const std::string cell = table.substr(row + 1 + column, 5);
    return cell.substr(0, cell.find(' '));
  };
  EXPECT_EQ(legal("obstacle_dense_s1"), "no") << table;
  EXPECT_EQ(legal("usefulskew_s1"), "no") << table;
  EXPECT_EQ(legal("uniform_s1"), "yes*") << table;
  EXPECT_NE(table.find("\n* legal, but the worst slew is within the kernel's 0.05 ps"),
            std::string::npos)
      << table;
}

TEST(SuiteEnv, RemovedKnobsAreReportedAsUnknown) {
  // These switches are gone; a leftover setting must warn rather than look
  // as if it still selected something.  The two scenario-family knobs get
  // values their old range checks rejected: nothing reads them any more.
  ScopedEnv batch("CONTANGO_BATCH", "0");
  ScopedEnv spatial("CONTANGO_SPATIAL", "0");
  ScopedEnv mmap("CONTANGO_MMAP", "0");
  ScopedEnv domains("CONTANGO_DOMAINS", "1");
  ScopedEnv windows("CONTANGO_WINDOW_FRACTION", "2");
  const std::vector<std::string> unknown = unknown_contango_env_vars();
  for (const char* name : {"CONTANGO_BATCH", "CONTANGO_SPATIAL", "CONTANGO_MMAP",
                           "CONTANGO_DOMAINS", "CONTANGO_WINDOW_FRACTION"}) {
    EXPECT_NE(std::find(unknown.begin(), unknown.end(), name), unknown.end())
        << name;
  }
  EXPECT_NO_THROW(suite_options_from_env());
  // The families draw their shape from the seed alone, as in the
  // checked-in benchmarks/multidomain_s1.bench and usefulskew_s1.bench.
  EXPECT_EQ(make_scenario("multidomain", 1).constraints.num_domains(), 4u);
  EXPECT_EQ(make_scenario("usefulskew", 1).constraints.num_windowed_sinks(), 45u);
}

TEST(SuiteEnv, UnknownContangoVariablesAreReportedNotFatal) {
  ScopedEnv typo("CONTANGO_THREDS", "4");  // the classic knob typo
  ScopedEnv reserved("CONTANGO_TEST_SCRATCH", "1");
  ScopedEnv known("CONTANGO_THREADS", "1");
  const std::vector<std::string> unknown = unknown_contango_env_vars();
  EXPECT_NE(std::find(unknown.begin(), unknown.end(), "CONTANGO_THREDS"),
            unknown.end());
  // Real knobs and the CONTANGO_TEST_ namespace never warn about themselves.
  EXPECT_EQ(std::find(unknown.begin(), unknown.end(), "CONTANGO_THREADS"),
            unknown.end());
  EXPECT_EQ(std::find(unknown.begin(), unknown.end(), "CONTANGO_TEST_SCRATCH"),
            unknown.end());
  // A typo warns (through Log::warn) but must not reject the environment:
  // the variable may belong to a different binary's future knob set.
  EXPECT_NO_THROW(suite_options_from_env());
}

TEST(SuiteEnv, BadPipelineSpecRejectedNamingTheKnob) {
  ScopedEnv bad("CONTANGO_PIPELINE", "dme,definitely_not_a_pass");
  try {
    suite_options_from_env();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("CONTANGO_PIPELINE"), std::string::npos) << message;
    EXPECT_NE(message.find("definitely_not_a_pass"), std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace contango
