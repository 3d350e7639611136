#include "service/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <future>
#include <utility>

#include "cts/pipeline.h"
#include "cts/scenario.h"
#include "service/socket_io.h"
#include "util/log.h"

namespace contango {
namespace {

/// A connected client that stays silent longer than this is dropped; it
/// bounds how long stop() can be pinned by a dead-but-connected peer.
constexpr int kRecvTimeoutSeconds = 10;

/// Shared between a submit connection's waiting thread and the scheduler
/// workers streaming events into it.
struct SubmitConnection {
  int fd = -1;
  std::atomic<bool> dead{false};  ///< peer hung up; stop writing
  std::promise<void> done;        ///< fulfilled by the job's kDone event
};

}  // namespace

Daemon::Daemon(const DaemonOptions& options)
    : options_(options),
      socket_path_(options.socket_path.empty() ? default_socket_path()
                                               : options.socket_path) {}

Daemon::~Daemon() { stop(/*cancel_jobs=*/false); }

void Daemon::start() {
  JobScheduler::Options sched;
  sched.workers = options_.workers;
  sched.max_queue = options_.max_queue;
  sched.cache_entries = options_.cache_entries;
  scheduler_ = std::make_unique<JobScheduler>(sched);
  listen_fd_ = listen_unix_socket(socket_path_);
  started_ = true;
  if (options_.verbose) {
    Log::info("contangod: serving on %s (%d workers, queue %d, cache %zu)",
              socket_path_.c_str(), scheduler_->status().workers,
              options_.max_queue, options_.cache_entries);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::stop(bool cancel_jobs) {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Draining first unblocks every submit connection (their done events
  // arrive), so the joins below cannot wait on a job.
  scheduler_->shutdown(cancel_jobs);
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) t.join();
  close_fd(listen_fd_);
  listen_fd_ = -1;
  ::unlink(socket_path_.c_str());
  if (options_.verbose) Log::info("contangod: stopped");
}

JobScheduler::Status Daemon::status() const { return scheduler_->status(); }

void Daemon::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    timeval timeout{};
    timeout.tv_sec = kRecvTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Daemon::handle_connection(int fd) {
  try {
    LineReader reader(fd);
    std::string line;
    if (!reader.read_line(&line)) {
      close_fd(fd);
      return;  // client connected and hung up without a request
    }
    const Request request = decode_request(line);
    switch (request.kind) {
      case Request::Kind::kSubmit:
        handle_submit(fd, request.job);
        break;
      case Request::Kind::kStatus:
        write_line(fd, encode_status(scheduler_->status(), socket_path_,
                                     uptime_.seconds()));
        break;
      case Request::Kind::kCancel: {
        JobState state = JobState::kQueued;
        const bool found = scheduler_->cancel(request.job_id, &state);
        if (options_.verbose) {
          Log::info("contangod: cancel %s -> %s", request.job_id.c_str(),
                    found ? job_state_name(state) : "not found");
        }
        write_line(fd, encode_cancel_response(request.job_id, found, state));
        break;
      }
      case Request::Kind::kShutdown:
        if (options_.verbose) Log::info("contangod: shutdown requested");
        // Flag before the ack: a client that has read the response must
        // find the daemon already committed to shutting down.
        shutdown_requested_.store(true, std::memory_order_relaxed);
        write_line(fd, encode_shutdown_response());
        break;
    }
  } catch (const ProtocolError& e) {
    write_line(fd, encode_error(e.what()));
  } catch (const std::exception& e) {
    // Socket errors land here too; the write below is best-effort.
    write_line(fd, encode_error(e.what()));
  }
  close_fd(fd);
}

void Daemon::handle_submit(int fd, const JobRequest& request) {
  JobSpec spec;
  try {
    spec.benchmarks = collect_workloads(request.workloads, request.seed);
    if (!request.pipeline.empty()) {
      // Reject before queueing: unknown passes and bad parameters too,
      // not just the spec's syntax.
      Pipeline::from_spec(request.pipeline);
    }
  } catch (const std::exception& e) {
    write_line(fd, encode_error(e.what()));
    return;
  }
  spec.name = request.name;
  spec.priority = request.priority;
  spec.suite = options_.base;
  spec.suite.threads = request.threads;
  if (!request.pipeline.empty()) spec.suite.pipeline_spec = request.pipeline;
  spec.suite.mc_trials = request.mc_trials;
  spec.suite.variation.sigma_vdd = request.mc_sigma_vdd;
  spec.suite.variation.seed = request.mc_seed;
  spec.suite.mc_skew_target = request.mc_skew_target;
  // Reports go over the wire; daemon-side files and hooks from the env
  // template would be shared across concurrent jobs.
  spec.suite.json_report_path.clear();
  spec.suite.on_run_done = nullptr;
  spec.suite.on_run_start = nullptr;

  auto conn = std::make_shared<SubmitConnection>();
  conn->fd = fd;
  JobScheduler* scheduler = scheduler_.get();
  const bool verbose = options_.verbose;
  EventSink sink = [conn, scheduler, verbose](const JobEvent& event) {
    if (!conn->dead.load(std::memory_order_relaxed)) {
      bool ok = write_line(conn->fd, encode_event(event));
      if (ok && event.kind == JobEvent::Kind::kDone &&
          !event.report_json.empty()) {
        // The report rides as its own raw line (see protocol.h): the
        // client saves these bytes verbatim, which is what makes a cache
        // hit cmp-identical to the fresh run.
        ok = write_line(conn->fd, event.report_json);
      }
      if (!ok) {
        // Client hung up mid-stream: stop writing and release the worker.
        conn->dead.store(true, std::memory_order_relaxed);
        scheduler->cancel(event.job);
      }
    }
    if (event.kind == JobEvent::Kind::kDone) {
      if (verbose) {
        Log::info("contangod: %s (%s) -> %s%s", event.job.c_str(),
                  event.name.c_str(), job_state_name(event.state),
                  event.cached ? " [cached]" : "");
      }
      conn->done.set_value();  // delivered exactly once per job
    }
  };

  if (options_.verbose) {
    Log::info("contangod: submit '%s' (%zu benchmarks, priority %d)",
              request.name.c_str(), spec.benchmarks.size(), request.priority);
  }
  const JobScheduler::Submission submission =
      scheduler_->submit(std::move(spec), std::move(sink));
  if (!submission.accepted) {
    write_line(fd, encode_error(submission.error));
    return;
  }
  // The streaming sink owns the connection now; hold it open until the
  // job's terminal event went out.
  conn->done.get_future().wait();
}

}  // namespace contango
