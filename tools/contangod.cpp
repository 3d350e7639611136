// The Contango service daemon: serves the newline-delimited JSON protocol
// (docs/SERVICE_PROTOCOL.md) on a Unix-domain socket, running submitted
// benchmark suites on a priority JobScheduler with a content-addressed
// result cache.  Pair it with contango-cli:
//
//   ./build/contangod --workers 4 &
//   ./build/contango-cli submit --workloads ring,grid
//   ./build/contango-cli shutdown
//
// SIGINT/SIGTERM shut down gracefully: in-flight jobs stop at their next
// cancellation point, streams flush, the socket file is removed.  A second
// signal exits immediately.
//
// usage: contangod [--socket PATH] [--workers N] [--max-queue N]
//                  [--cache N] [--verbose]
//
// The socket defaults to $CONTANGO_SOCKET, else /tmp/contangod.sock.  The
// CONTANGO_* suite env knobs (threads, pipeline, MC config; cts/suite.h)
// form the base options every job inherits before its own overrides.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "cts/suite.h"
#include "service/daemon.h"
#include "util/env.h"
#include "util/log.h"
#include "util/signal.h"

using namespace contango;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--socket PATH] [--workers N] [--max-queue N] "
               "[--cache N] [--verbose]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  options.verbose = true;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--socket") {
        options.socket_path = next();
      } else if (arg == "--workers") {
        options.workers = parse_int(arg, next());
      } else if (arg == "--max-queue") {
        options.max_queue = parse_int(arg, next());
      } else if (arg == "--cache") {
        const long entries = parse_long(arg, next());
        if (entries < 0) throw std::runtime_error("--cache must be >= 0");
        options.cache_entries = static_cast<std::size_t>(entries);
      } else if (arg == "--verbose") {
        options.verbose = true;
      } else if (arg == "--quiet") {
        options.verbose = false;
      } else {
        return usage(argv[0]);
      }
    }
    options.base = suite_options_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "contangod: %s\n", e.what());
    return 2;
  }
  for (const std::string& name : unknown_contango_env_vars()) {
    Log::warn("contangod: unknown env var %s (knob typo?)", name.c_str());
  }

  // Signal -> cancel bridge: first SIGINT/SIGTERM requests a graceful
  // shutdown (jobs stop at their next cancellation point), a second one
  // _Exits.  Installed before start() so there is no uncovered window.
  install_signal_cancel();

  Daemon daemon(options);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "contangod: %s\n", e.what());
    return 1;
  }

  while (!signal_cancel_token().cancelled() && !daemon.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const bool signalled = signal_cancel_token().cancelled();
  if (signalled) {
    Log::info("contangod: caught %s, shutting down",
              strsignal(signal_received()));
  }
  // Signal-initiated shutdown cancels in-flight jobs (the operator wants
  // the process gone); a client-requested shutdown lets them finish.
  daemon.stop(/*cancel_jobs=*/signalled);
  return 0;
}
