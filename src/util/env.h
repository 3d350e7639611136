#pragma once

#include <string>

namespace contango {

/// \brief Parses all of `text` as a base-10 integer.  `what` names the
/// value in the error: an environment variable, a positional argument or
/// an option.  Every numeric knob and command-line number goes through
/// these parsers, so `abc`, `12abc` or an empty string is an error naming
/// its source instead of a silent 0.
/// \throws std::runtime_error naming `what` and `text` when the text is
/// not an integer or does not fit a long
long parse_long(const std::string& what, const std::string& text);

/// parse_long() narrowed to int.
/// \throws std::runtime_error also when the value does not fit an int
int parse_int(const std::string& what, const std::string& text);

/// Parses all of `text` as a finite floating-point number; see parse_long.
/// Non-finite values (`nan`, `inf`) are rejected like malformed ones.
double parse_double(const std::string& what, const std::string& text);

/// \brief Reads an integer environment variable.  Unset (or empty) yields
/// the fallback; a *set yet malformed* value throws instead of being
/// silently coerced — `CONTANGO_SEED=abc` is a configuration mistake the
/// harness must surface, not paper over.  Benchmark drivers use these to
/// scale experiments (e.g. CONTANGO_MAX_SINKS for the Table V sweep).
/// \throws std::runtime_error naming the variable and its offending value
long env_long(const char* name, long fallback);

/// Reads a floating-point environment variable; see env_long and
/// parse_double.
/// \throws std::runtime_error naming the variable and its offending value
double env_double(const char* name, double fallback);

/// Reads a string environment variable with a fallback.
std::string env_string(const char* name, const std::string& fallback);

}  // namespace contango
