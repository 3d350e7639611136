#pragma once

#include <string>

namespace contango {

/// \brief Reads an integer environment variable.  Unset (or empty) yields
/// the fallback; a *set yet malformed* value throws instead of being
/// silently coerced — `CONTANGO_SEED=abc` is a configuration mistake the
/// harness must surface, not paper over.  Benchmark drivers use these to
/// scale experiments (e.g. CONTANGO_MAX_SINKS for the Table V sweep).
/// \throws std::runtime_error naming the variable and its offending value
long env_long(const char* name, long fallback);

/// Reads a floating-point environment variable; see env_long.  Non-finite
/// values (`nan`, `inf`) are rejected like malformed ones.
/// \throws std::runtime_error naming the variable and its offending value
double env_double(const char* name, double fallback);

/// Reads a string environment variable with a fallback.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace contango
