#include "util/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/env.h"

namespace contango {
namespace {

// Never throws: an unknown CONTANGO_LOG leaves the logger at warn until
// the program's own start-up check (Log::level_from_env) rejects it.
std::atomic<LogLevel> g_level = [] {
  try {
    return Log::level_from_env();
  } catch (const std::runtime_error&) {
    return LogLevel::kWarn;
  }
}();

void vlog(LogLevel level, const char* tag, const char* fmt, va_list args) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  // One message, one stdio call: stdio locks per call, so messages from
  // concurrent suite-runner workers never interleave mid-line.
  char buffer[1024];
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  std::fprintf(stderr, "[%s] %s\n", tag, buffer);
}

}  // namespace

LogLevel Log::level_from_env() {
  static const struct {
    const char* name;
    LogLevel level;
  } kLevels[] = {{"debug", LogLevel::kDebug},
                 {"info", LogLevel::kInfo},
                 {"warn", LogLevel::kWarn},
                 {"error", LogLevel::kError},
                 {"silent", LogLevel::kSilent}};
  const std::string value = env_string("CONTANGO_LOG", "warn");
  for (const auto& entry : kLevels) {
    if (value == entry.name) return entry.level;
  }
  throw std::runtime_error("CONTANGO_LOG='" + value +
                           "' is not a log level (debug, info, warn, error, silent)");
}

LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }
void Log::set_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

void Log::debug(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vlog(LogLevel::kDebug, "debug", fmt, args);
  va_end(args);
}

void Log::info(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vlog(LogLevel::kInfo, "info", fmt, args);
  va_end(args);
}

void Log::warn(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vlog(LogLevel::kWarn, "warn", fmt, args);
  va_end(args);
}

void Log::error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  vlog(LogLevel::kError, "error", fmt, args);
  va_end(args);
}

}  // namespace contango
