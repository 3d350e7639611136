#pragma once

#include <cstdio>
#include <string>

namespace contango {

/// Severity levels for the global logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kSilent = 4 };

/// Minimal global logger.  Contango is a library first; all logging goes to
/// stderr and is filtered by a process-wide level so that benchmark drivers
/// can silence the flow.  Thread-safe: the level is atomic and each message
/// is emitted with a single stdio call, so lines from concurrent
/// suite-runner workers never interleave mid-line.
///
/// The level starts as CONTANGO_LOG names it (`debug`, `info`, `warn`,
/// `error` or `silent`; unset or empty means `warn`).  Static
/// initialization must not throw, so an unknown name starts the logger at
/// `warn`; the programs check their environment at start-up with
/// level_from_env(), which rejects that name, and so does
/// suite_options_from_env().
class Log {
 public:
  static LogLevel level();
  static void set_level(LogLevel level);

  /// The level CONTANGO_LOG names, read through util/env; `warn` when it is
  /// unset or empty.
  /// \throws std::runtime_error naming the variable and its value when the
  /// value names no level
  static LogLevel level_from_env();

  /// printf-style logging; the message is prefixed with the severity tag.
  static void debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
  static void info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
  static void warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
  static void error(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
};

}  // namespace contango
