// The service subsystem end to end: result cache semantics, job content
// hashing, cooperative cancellation through suite and pipeline, the
// JobScheduler's ordering/cancellation/admission edge cases, the wire
// protocol codecs, the signal bridge, and a real daemon round trip over a
// Unix-domain socket.
//
// Scheduling tests are made deterministic with a gate benchmark: a job
// whose suite callback blocks on a latch pins the scheduler's single
// worker at a known point, so "cancel before start", "priority jumps the
// queue" and "queue full" are exact scenarios, not races.

#include <gtest/gtest.h>

#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "cts/suite.h"
#include "io/json.h"
#include "netlist/generators.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "util/cancel.h"
#include "util/signal.h"

namespace contango {
namespace {

Hash128 key_of(std::uint64_t n) {
  Hash128 h;
  h.lo = n;
  return h;
}

TEST(ResultCache, HitMissAndStats) {
  ResultCache cache(4);
  std::string out;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
  cache.store(key_of(1), "report-1");
  ASSERT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(out, "report-1");

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.max_entries, 4u);
}

TEST(ResultCache, FirstStoreWins) {
  // Two racing jobs with one key: the first report must stay, so every hit
  // for a key is byte-identical over the entry's lifetime.
  ResultCache cache(4);
  cache.store(key_of(1), "first");
  cache.store(key_of(1), "second");
  std::string out;
  ASSERT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(out, "first");
}

TEST(ResultCache, FifoEviction) {
  ResultCache cache(2);
  cache.store(key_of(1), "a");
  cache.store(key_of(2), "b");
  cache.store(key_of(3), "c");  // evicts key 1 (oldest)
  std::string out;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
  EXPECT_TRUE(cache.lookup(key_of(2), &out));
  EXPECT_TRUE(cache.lookup(key_of(3), &out));
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.store(key_of(1), "a");
  std::string out;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
}

TEST(JobContentHash, ExcludesBitIdenticalModesAndResolvesPipeline) {
  const std::vector<Benchmark> suite{generate_ti_like(60)};
  SuiteOptions a;
  const Hash128 base = job_content_hash(suite, a);

  // threads / incremental are bit-identical execution modes: changing
  // them must hit the same cache entry.
  SuiteOptions b = a;
  b.threads = 7;
  b.flow.incremental = false;
  EXPECT_EQ(job_content_hash(suite, b), base);

  // The incremental engine's level-sweep worker cap is an execution mode
  // too: jobs differing only in eval threads share one entry.
  for (int eval_threads : {1, 2, 8}) {
    SuiteOptions t = a;
    t.flow.eval.threads = eval_threads;
    EXPECT_EQ(job_content_hash(suite, t), base) << eval_threads;
  }

  // An explicit spec equal to the default resolves to the same key...
  SuiteOptions c = a;
  c.flow.pipeline = resolved_pipeline_spec(a.flow);
  EXPECT_EQ(job_content_hash(suite, c), base);
  // ...and a genuinely different pipeline moves it.
  SuiteOptions d = a;
  d.flow.pipeline = "dme,repair,insert,polarity";
  EXPECT_NE(job_content_hash(suite, d), base);

  // MC sigmas are inert at 0 trials, live above.
  SuiteOptions e = a;
  e.variation.sigma_vdd = 0.5;
  EXPECT_EQ(job_content_hash(suite, e), base);
  e.mc_trials = 8;
  EXPECT_NE(job_content_hash(suite, e), base);

  // Different workload, different key.
  const std::vector<Benchmark> other{generate_ti_like(90)};
  EXPECT_NE(job_content_hash(other, a), base);
}

TEST(Cancellation, PipelineThrowsAtPassBoundary) {
  FlowOptions options;
  options.cancel = CancelToken::make();
  options.cancel.request_cancel();
  EXPECT_THROW(run_contango(generate_ti_like(60), options), CancelledError);
}

TEST(Cancellation, PreCancelledSuiteMarksEveryRun) {
  SuiteOptions options;
  options.threads = 1;
  options.flow.cancel = CancelToken::make();
  options.flow.cancel.request_cancel();

  const std::vector<Benchmark> suite{generate_ti_like(60), generate_ti_like(90)};
  const SuiteReport report = run_suite(suite, options);
  ASSERT_EQ(report.runs.size(), 2u);
  for (const SuiteRun& run : report.runs) {
    EXPECT_FALSE(run.ok);
    EXPECT_TRUE(run.cancelled);
    EXPECT_EQ(run.error, "cancelled");
  }
  EXPECT_NE(report.table().find("CANCELLED"), std::string::npos);

  // The JSON report still renders, with the cancelled flags set.
  const JsonValue doc = parse_json(report.to_json());
  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  for (const JsonValue& run : runs->items()) {
    EXPECT_TRUE(run.bool_or("cancelled", false));
  }
}

TEST(Cancellation, MidSuiteStopsRemainingRuns) {
  // Deterministic mid-suite cancel: one worker, two benchmarks, the
  // completion hook of the first fires the token before the runner reaches
  // the second.
  SuiteOptions options;
  options.threads = 1;
  options.flow.cancel = CancelToken::make();
  options.on_run_done = [&options](const SuiteRun&) {
    options.flow.cancel.request_cancel();
  };
  const std::vector<Benchmark> suite{generate_ti_like(60), generate_ti_like(90)};
  const SuiteReport report = run_suite(suite, options);
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_TRUE(report.runs[0].ok);
  EXPECT_FALSE(report.runs[0].cancelled);
  EXPECT_TRUE(report.runs[1].cancelled);
  EXPECT_FALSE(report.all_ok());
}

// ------------------------------------------------------------- scheduler --

/// Records every event of one submission, with a global sequence mutex so
/// cross-job orderings can be asserted.
struct EventLog {
  std::mutex* order_mutex;
  std::vector<std::string>* order;  ///< global "job:event" sequence
  std::vector<JobEvent> events;     ///< this job's events, in order

  EventSink sink() {
    return [this](const JobEvent& event) {
      std::lock_guard<std::mutex> lock(*order_mutex);
      static const char* names[] = {"queued", "started", "progress", "done"};
      order->push_back(event.job + ":" +
                       names[static_cast<int>(event.kind)]);
      events.push_back(event);
    };
  }
};

/// A job whose suite hook blocks until release() — pins one worker at a
/// deterministic point (after its benchmark finished, before the job ends).
struct GateJob {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  JobSpec spec() {
    JobSpec s;
    s.name = "gate";
    s.benchmarks = {generate_ti_like(60)};
    s.suite.threads = 1;
    s.suite.on_run_done = [this](const SuiteRun&) {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [this] { return open; });
    };
    return s;
  }

  void release() {
    std::lock_guard<std::mutex> lock(m);
    open = true;
    cv.notify_all();
  }
};

JobScheduler::Options one_worker() {
  JobScheduler::Options o;
  o.workers = 1;
  o.max_queue = 8;
  return o;
}

TEST(JobScheduler, RunsAJobAndStreamsEvents) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  EventLog log{&order_mutex, &order, {}};

  JobScheduler scheduler(one_worker());
  JobSpec spec;
  spec.name = "basic";
  spec.benchmarks = {generate_ti_like(60)};
  spec.suite.threads = 1;
  const auto submission = scheduler.submit(std::move(spec), log.sink());
  ASSERT_TRUE(submission.accepted);
  EXPECT_FALSE(submission.cached);
  scheduler.drain();

  ASSERT_EQ(log.events.size(), 4u);  // queued, started, progress, done
  EXPECT_EQ(log.events[0].kind, JobEvent::Kind::kQueued);
  EXPECT_EQ(log.events[1].kind, JobEvent::Kind::kStarted);
  EXPECT_EQ(log.events[2].kind, JobEvent::Kind::kProgress);
  EXPECT_TRUE(log.events[2].benchmark_ok);
  EXPECT_EQ(log.events[3].kind, JobEvent::Kind::kDone);
  EXPECT_EQ(log.events[3].state, JobState::kDone);
  EXPECT_FALSE(log.events[3].report_json.empty());

  const JobScheduler::Status status = scheduler.status();
  EXPECT_EQ(status.submitted, 1u);
  EXPECT_EQ(status.completed, 1u);
  EXPECT_EQ(status.queued, 0);
  EXPECT_EQ(status.running, 0);
  EXPECT_GT(status.busy_seconds, 0.0);
}

TEST(JobScheduler, CacheHitIsByteIdentical) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  JobScheduler scheduler(one_worker());

  JobSpec spec;
  spec.name = "first";
  spec.benchmarks = {generate_ti_like(60)};
  spec.suite.threads = 1;
  JobSpec repeat = spec;
  repeat.name = "second";
  repeat.suite.threads = 3;  // excluded from the key: still a hit

  EventLog fresh{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler.submit(std::move(spec), fresh.sink()).accepted);
  scheduler.drain();
  ASSERT_EQ(fresh.events.back().state, JobState::kDone);

  EventLog cached{&order_mutex, &order, {}};
  const auto hit = scheduler.submit(std::move(repeat), cached.sink());
  ASSERT_TRUE(hit.accepted);
  EXPECT_TRUE(hit.cached);  // served synchronously, no worker involved
  ASSERT_EQ(cached.events.size(), 2u);  // queued, done — never started
  EXPECT_TRUE(cached.events[1].cached);
  EXPECT_EQ(cached.events[1].report_json, fresh.events.back().report_json);
  EXPECT_EQ(scheduler.status().cache.hits, 1u);
}

TEST(JobScheduler, CancelBeforeStart) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  JobScheduler scheduler(one_worker());

  GateJob gate;
  EventLog gate_log{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler.submit(gate.spec(), gate_log.sink()).accepted);

  // The worker is pinned; this job can only wait — cancel it in the queue.
  JobSpec queued;
  queued.name = "victim";
  queued.benchmarks = {generate_ti_like(90)};
  queued.suite.threads = 1;
  EventLog victim{&order_mutex, &order, {}};
  const auto submission = scheduler.submit(std::move(queued), victim.sink());
  ASSERT_TRUE(submission.accepted);

  JobState observed = JobState::kDone;
  ASSERT_TRUE(scheduler.cancel(submission.id, &observed));
  EXPECT_EQ(observed, JobState::kQueued);
  // Terminal event delivered synchronously by cancel(); never started.
  ASSERT_EQ(victim.events.size(), 2u);
  EXPECT_EQ(victim.events[1].kind, JobEvent::Kind::kDone);
  EXPECT_EQ(victim.events[1].state, JobState::kCancelled);
  EXPECT_TRUE(victim.events[1].report_json.empty());

  // Cancelling an already-terminal job is a no-op, not an error.
  ASSERT_TRUE(scheduler.cancel(submission.id, &observed));
  EXPECT_EQ(observed, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel("job-999", nullptr));

  gate.release();
  scheduler.drain();
  EXPECT_EQ(gate_log.events.back().state, JobState::kDone);
  EXPECT_EQ(scheduler.status().cancelled, 1u);
}

TEST(JobScheduler, CancelMidSuite) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  JobScheduler scheduler(one_worker());

  // Two benchmarks; the sink cancels the job at the first progress event,
  // so the second benchmark deterministically sees a fired token.
  JobSpec spec;
  spec.name = "mid";
  spec.benchmarks = {generate_ti_like(60), generate_ti_like(90)};
  spec.suite.threads = 1;

  std::vector<JobEvent> events;
  std::mutex events_mutex;
  JobScheduler* sched = &scheduler;
  const auto submission = scheduler.submit(
      std::move(spec), [&events, &events_mutex, sched](const JobEvent& event) {
        std::lock_guard<std::mutex> lock(events_mutex);
        events.push_back(event);
        if (event.kind == JobEvent::Kind::kProgress && event.completed == 1) {
          sched->cancel(event.job);
        }
      });
  ASSERT_TRUE(submission.accepted);
  scheduler.drain();

  ASSERT_GE(events.size(), 3u);
  const JobEvent& done = events.back();
  EXPECT_EQ(done.kind, JobEvent::Kind::kDone);
  EXPECT_EQ(done.state, JobState::kCancelled);
  EXPECT_TRUE(done.report_json.empty());  // partial results are not reports
  EXPECT_EQ(scheduler.status().cancelled, 1u);
  // Nothing cancelled may populate the cache.
  EXPECT_EQ(scheduler.status().cache.entries, 0u);
}

TEST(JobScheduler, PriorityJumpsTheQueue) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  JobScheduler scheduler(one_worker());

  GateJob gate;
  EventLog gate_log{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler.submit(gate.spec(), gate_log.sink()).accepted);

  JobSpec low;
  low.name = "low";
  low.priority = 0;
  low.benchmarks = {generate_ti_like(60)};
  low.suite.threads = 1;
  JobSpec high;
  high.name = "high";
  high.priority = 5;
  high.benchmarks = {generate_ti_like(90)};
  high.suite.threads = 1;

  EventLog low_log{&order_mutex, &order, {}};
  EventLog high_log{&order_mutex, &order, {}};
  const auto low_sub = scheduler.submit(std::move(low), low_log.sink());
  const auto high_sub = scheduler.submit(std::move(high), high_log.sink());
  ASSERT_TRUE(low_sub.accepted);
  ASSERT_TRUE(high_sub.accepted);

  gate.release();
  scheduler.drain();

  // Both finished, but the high-priority job started first even though it
  // was submitted second.
  const auto pos = [&](const std::string& entry) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == entry) return i;
    }
    ADD_FAILURE() << "missing event " << entry;
    return order.size();
  };
  EXPECT_LT(pos(high_sub.id + ":started"), pos(low_sub.id + ":started"));
  EXPECT_EQ(high_log.events.back().state, JobState::kDone);
  EXPECT_EQ(low_log.events.back().state, JobState::kDone);
}

TEST(JobScheduler, QueueFullRejects) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  JobScheduler::Options options = one_worker();
  options.max_queue = 1;
  JobScheduler scheduler(options);

  GateJob gate;
  EventLog gate_log{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler.submit(gate.spec(), gate_log.sink()).accepted);
  // The queue holds only the next job once the worker has taken the gate;
  // probing it earlier would reject "fits" and leave the gate shut.
  while (scheduler.status().queued > 0) std::this_thread::yield();

  auto make_spec = [](const char* name, int sinks) {
    JobSpec s;
    s.name = name;
    s.benchmarks = {generate_ti_like(sinks)};
    s.suite.threads = 1;
    return s;
  };
  EventLog q1{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler.submit(make_spec("fits", 90), q1.sink()).accepted);

  // Worker busy + one waiting = queue full; admission must reject loudly.
  EventLog q2{&order_mutex, &order, {}};
  const auto rejected = scheduler.submit(make_spec("overflow", 120), q2.sink());
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);
  EXPECT_TRUE(q2.events.empty());  // no events for rejected submissions
  EXPECT_EQ(scheduler.status().rejected, 1u);

  gate.release();
  scheduler.drain();
}

TEST(JobScheduler, ShutdownCancelsLiveJobs) {
  std::mutex order_mutex;
  std::vector<std::string> order;
  auto scheduler = std::make_unique<JobScheduler>(one_worker());

  GateJob gate;
  EventLog gate_log{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler->submit(gate.spec(), gate_log.sink()).accepted);
  JobSpec queued;
  queued.name = "never-runs";
  queued.benchmarks = {generate_ti_like(90)};
  queued.suite.threads = 1;
  EventLog victim{&order_mutex, &order, {}};
  ASSERT_TRUE(scheduler->submit(std::move(queued), victim.sink()).accepted);

  gate.release();  // the gate job itself can now finish
  scheduler->shutdown(/*cancel_jobs=*/true);

  EXPECT_EQ(victim.events.back().state, JobState::kCancelled);
  // After shutdown every submission is rejected.
  JobSpec late;
  late.name = "late";
  late.benchmarks = {generate_ti_like(60)};
  EventLog late_log{&order_mutex, &order, {}};
  EXPECT_FALSE(scheduler->submit(std::move(late), late_log.sink()).accepted);
}

// -------------------------------------------------------------- protocol --

TEST(Protocol, SubmitRequestRoundTrip) {
  Request request;
  request.kind = Request::Kind::kSubmit;
  request.job.workloads = "ring,uniform:40";
  request.job.name = "nightly";
  request.job.seed = 7;
  request.job.priority = 3;
  request.job.threads = 2;
  request.job.pipeline = "dme,repair,insert,polarity";
  request.job.mc_trials = 16;
  request.job.mc_sigma_vdd = 0.07;
  request.job.mc_seed = 9;
  request.job.mc_skew_target = 12.5;

  const Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.kind, Request::Kind::kSubmit);
  EXPECT_EQ(decoded.job.workloads, request.job.workloads);
  EXPECT_EQ(decoded.job.name, "nightly");
  EXPECT_EQ(decoded.job.seed, 7u);
  EXPECT_EQ(decoded.job.priority, 3);
  EXPECT_EQ(decoded.job.threads, 2);
  EXPECT_EQ(decoded.job.pipeline, request.job.pipeline);
  EXPECT_EQ(decoded.job.mc_trials, 16);
  EXPECT_DOUBLE_EQ(decoded.job.mc_sigma_vdd, 0.07);
  EXPECT_EQ(decoded.job.mc_seed, 9u);
  EXPECT_DOUBLE_EQ(decoded.job.mc_skew_target, 12.5);

  Request cancel;
  cancel.kind = Request::Kind::kCancel;
  cancel.job_id = "job-4";
  EXPECT_EQ(decode_request(encode_request(cancel)).job_id, "job-4");
  Request status;
  status.kind = Request::Kind::kStatus;
  EXPECT_EQ(decode_request(encode_request(status)).kind, Request::Kind::kStatus);
}

TEST(Protocol, DecodeRejectsBadRequests) {
  EXPECT_THROW(decode_request("not json"), ProtocolError);
  EXPECT_THROW(decode_request("[1,2]"), ProtocolError);
  EXPECT_THROW(decode_request(R"({"cmd":"frobnicate"})"), ProtocolError);
  EXPECT_THROW(decode_request(R"({"cmd":"submit"})"), ProtocolError);  // no workloads
  EXPECT_THROW(decode_request(R"({"cmd":"cancel"})"), ProtocolError);  // no job
  EXPECT_THROW(decode_request(R"({"cmd":"submit","workloads":"ring","threads":-1})"),
               ProtocolError);  // out of range
}

TEST(Protocol, NameDefaultsToWorkloads) {
  const Request decoded =
      decode_request(R"({"cmd":"submit","workloads":"ring"})");
  EXPECT_EQ(decoded.job.name, "ring");
  EXPECT_EQ(decoded.job.threads, 1);
  EXPECT_EQ(decoded.job.mc_trials, 0);
}

TEST(Protocol, EventEncodingRoundTrips) {
  JobEvent event;
  event.kind = JobEvent::Kind::kDone;
  event.job = "job-2";
  event.name = "nightly";
  event.hash_hex = "00ff";
  event.state = JobState::kDone;
  event.seconds = 1.25;
  event.report_json = "{\"runs\":[]}";
  const JsonValue doc = parse_json(encode_event(event));
  EXPECT_EQ(doc.string_or("type", ""), "event");
  EXPECT_EQ(doc.string_or("event", ""), "done");
  EXPECT_EQ(doc.string_or("state", ""), "done");
  EXPECT_TRUE(doc.bool_or("report_follows", false));
  // The report itself is NOT embedded — it rides as its own line.
  EXPECT_EQ(doc.find("report"), nullptr);
}

// ---------------------------------------------------------------- signal --

TEST(SignalBridge, FirstSignalFiresTheToken) {
  install_signal_cancel();
  ASSERT_FALSE(signal_cancel_token().cancelled());
  // One raise only: the bridge's second-signal path calls _Exit.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(signal_cancel_token().cancelled());
  EXPECT_EQ(signal_received(), SIGTERM);
}

// ---------------------------------------------------------------- daemon --

TEST(Daemon, EndToEndOverSocket) {
  DaemonOptions options;
  options.socket_path =
      "/tmp/contango-test-" + std::to_string(::getpid()) + ".sock";
  options.workers = 1;
  options.verbose = false;
  Daemon daemon(options);
  daemon.start();

  ServiceClient client(options.socket_path);
  JobRequest request;
  request.workloads = "uniform:40";

  std::vector<std::string> kinds;
  const ServiceClient::SubmitResult fresh =
      client.submit(request, [&kinds](const std::string&, const JsonValue& e) {
        kinds.push_back(e.string_or("event", ""));
      });
  EXPECT_EQ(fresh.state, JobState::kDone);
  EXPECT_FALSE(fresh.cached);
  ASSERT_FALSE(fresh.report_json.empty());
  ASSERT_GE(kinds.size(), 3u);
  EXPECT_EQ(kinds.front(), "queued");
  EXPECT_EQ(kinds.back(), "done");

  // Identical resubmission: cache hit, byte-identical report.
  const ServiceClient::SubmitResult repeat = client.submit(request);
  EXPECT_EQ(repeat.state, JobState::kDone);
  EXPECT_TRUE(repeat.cached);
  EXPECT_EQ(repeat.report_json, fresh.report_json);

  // The report is a valid suite document with the right benchmark.
  const JsonValue report = parse_json(fresh.report_json);
  ASSERT_NE(report.find("runs"), nullptr);
  EXPECT_EQ(report.find("runs")->items().size(), 1u);

  const JsonValue status = client.request_status();
  EXPECT_EQ(status.long_or("workers", 0), 1);
  EXPECT_EQ(status.long_or("submitted", 0), 2);
  EXPECT_EQ(status.long_or("completed", 0), 2);
  ASSERT_NE(status.find("cache"), nullptr);
  EXPECT_EQ(status.find("cache")->long_or("hits", 0), 1);
  ASSERT_NE(status.find("jobs"), nullptr);
  EXPECT_EQ(status.find("jobs")->items().size(), 2u);

  // Unknown workloads answer with a protocol error, not a dead socket.
  JobRequest bad;
  bad.workloads = "no_such_family";
  EXPECT_THROW(client.submit(bad), ProtocolError);

  // So do pipeline specs that parse but cannot run (an unknown pass, a
  // parameter that is not a number or out of its range, a wire the
  // workload's technology does not have): nothing is queued for them.
  for (const char* spec : {"dme,bogus", "twsz:rounds=abc", "insert:spacing=0",
                           "dme:wire_width=99"}) {
    SCOPED_TRACE(spec);
    JobRequest bad_pipeline;
    bad_pipeline.workloads = "uniform:40";
    bad_pipeline.pipeline = spec;
    EXPECT_THROW(client.submit(bad_pipeline), ProtocolError);
  }
  EXPECT_EQ(client.request_status().long_or("submitted", 0), 2);

  // Cancel of an unknown id reports found=false.
  EXPECT_FALSE(client.request_cancel("job-999"));

  // Client-requested shutdown: acknowledged, then the daemon drains.
  client.request_shutdown();
  EXPECT_TRUE(daemon.shutdown_requested());
  daemon.stop(/*cancel_jobs=*/false);
  // Socket file is gone; a late client fails to connect.
  EXPECT_THROW(ServiceClient(options.socket_path).request_status(),
               std::runtime_error);
}

}  // namespace
}  // namespace contango
