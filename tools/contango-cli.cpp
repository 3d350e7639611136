// Command-line client of contangod (docs/SERVICE_PROTOCOL.md):
//
//   contango-cli submit WORKLOADS [--seed N] [--priority N] [--threads N]
//                [--pipeline SPEC] [--mc-trials N] [--mc-seed N]
//                [--mc-sigma-vdd X] [--mc-skew-target PS]
//                [--out FILE] [--quiet]
//   contango-cli status
//   contango-cli cancel JOB
//   contango-cli shutdown
//
// All subcommands take --socket PATH (default: $CONTANGO_SOCKET, else
// /tmp/contangod.sock).  WORKLOADS uses the collect_workloads() syntax:
// scenario families with optional :N sink counts, .bench files and
// directories, comma-separated (e.g. "ring,high_fanout:1000,benchmarks").
//
// submit streams progress to stderr and writes the suite report (verbatim
// bytes from the daemon — cache hits are cmp-identical to fresh runs) to
// --out or stdout.  Exit codes: 0 done, 1 usage/connection/protocol error,
// 2 job failed, 3 job cancelled.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "io/json.h"
#include "service/client.h"
#include "util/env.h"
#include "util/log.h"

using namespace contango;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: contango-cli [--socket PATH] COMMAND ...\n"
      "  submit WORKLOADS [--seed N] [--priority N] [--threads N]\n"
      "         [--pipeline SPEC] [--mc-trials N] [--mc-seed N]\n"
      "         [--mc-sigma-vdd X] [--mc-skew-target PS]\n"
      "         [--out FILE] [--quiet]\n"
      "  status\n"
      "  cancel JOB\n"
      "  shutdown\n");
  return 1;
}

int run_submit(ServiceClient& client, const std::vector<std::string>& args) {
  JobRequest request;
  std::string out_path;
  bool quiet = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "contango-cli: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return args[++i];
    };
    if (arg == "--seed") {
      request.seed = static_cast<std::uint64_t>(parse_long(arg, next()));
    } else if (arg == "--priority") {
      request.priority = parse_int(arg, next());
    } else if (arg == "--threads") {
      request.threads = parse_int(arg, next());
    } else if (arg == "--pipeline") {
      request.pipeline = next();
    } else if (arg == "--mc-trials") {
      request.mc_trials = parse_int(arg, next());
    } else if (arg == "--mc-seed") {
      request.mc_seed = static_cast<std::uint64_t>(parse_long(arg, next()));
    } else if (arg == "--mc-sigma-vdd") {
      request.mc_sigma_vdd = parse_double(arg, next());
    } else if (arg == "--mc-skew-target") {
      request.mc_skew_target = parse_double(arg, next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "contango-cli: unknown submit flag %s\n", arg.c_str());
      return 1;
    } else if (request.workloads.empty()) {
      request.workloads = arg;
    } else {
      std::fprintf(stderr, "contango-cli: more than one workload spec "
                           "(join them with commas)\n");
      return 1;
    }
  }
  if (request.workloads.empty()) {
    std::fprintf(stderr, "contango-cli: submit needs a workload spec\n");
    return 1;
  }
  request.name = request.workloads;

  ServiceClient::EventCallback progress;
  if (!quiet) {
    progress = [](const std::string&, const JsonValue& event) {
      const std::string kind = event.string_or("event", "");
      if (kind == "queued") {
        std::fprintf(stderr, "%s queued (%lld ahead, %lld benchmarks)\n",
                     event.string_or("job", "?").c_str(),
                     event.long_or("queue_position", 0),
                     event.long_or("total_benchmarks", 0));
      } else if (kind == "started") {
        std::fprintf(stderr, "%s started\n",
                     event.string_or("job", "?").c_str());
      } else if (kind == "progress") {
        std::fprintf(stderr, "%s [%lld/%lld] %s %s (%.2fs)\n",
                     event.string_or("job", "?").c_str(),
                     event.long_or("completed", 0),
                     event.long_or("total_benchmarks", 0),
                     event.string_or("benchmark", "?").c_str(),
                     event.bool_or("ok", false) ? "ok" : "FAILED",
                     event.number_or("seconds", 0.0));
      } else if (kind == "done") {
        std::fprintf(stderr, "%s %s%s (%.2fs)\n",
                     event.string_or("job", "?").c_str(),
                     event.string_or("state", "?").c_str(),
                     event.bool_or("cached", false) ? " [cached]" : "",
                     event.number_or("seconds", 0.0));
      }
    };
  }

  const ServiceClient::SubmitResult result = client.submit(request, progress);
  if (!result.report_json.empty()) {
    if (out_path.empty()) {
      std::printf("%s\n", result.report_json.c_str());
    } else {
      // Verbatim bytes plus the protocol's newline framing: two --out
      // files of the same job (fresh and cached) compare equal with cmp.
      write_text_file(out_path, result.report_json + "\n");
    }
  }
  switch (result.state) {
    case JobState::kDone:
      return 0;
    case JobState::kCancelled:
      std::fprintf(stderr, "contango-cli: job %s was cancelled\n",
                   result.job.c_str());
      return 3;
    default:
      std::fprintf(stderr, "contango-cli: job %s failed: %s\n",
                   result.job.c_str(), result.error.c_str());
      return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string command;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && command.empty()) {
      if (i + 1 >= argc) return usage();
      socket_path = argv[++i];
    } else if (command.empty()) {
      command = arg;
    } else {
      rest.push_back(arg);
    }
  }
  if (command.empty()) return usage();

  ServiceClient client(socket_path);
  try {
    Log::level_from_env();
    if (command == "submit") {
      return run_submit(client, rest);
    }
    if (command == "status") {
      std::string raw;
      client.request_status(&raw);
      std::printf("%s\n", raw.c_str());
      return 0;
    }
    if (command == "cancel") {
      if (rest.size() != 1) {
        std::fprintf(stderr, "contango-cli: cancel needs exactly one job id\n");
        return 1;
      }
      std::string state;
      if (!client.request_cancel(rest[0], &state)) {
        std::fprintf(stderr, "contango-cli: no such job %s\n", rest[0].c_str());
        return 1;
      }
      std::printf("%s %s\n", rest[0].c_str(), state.c_str());
      return 0;
    }
    if (command == "shutdown") {
      client.request_shutdown();
      std::fprintf(stderr, "contango-cli: daemon shutting down\n");
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "contango-cli: %s\n", e.what());
    return 1;
  }
  return usage();
}
