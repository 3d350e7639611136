#include "util/env.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace contango {

namespace {

std::runtime_error rejected(const std::string& what, const std::string& text,
                            const char* why) {
  return std::runtime_error(what + "='" + text + "' " + why);
}

}  // namespace

long parse_long(const std::string& what, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(begin, &end, 10);
  if (text.empty() || end != begin + text.size()) {
    throw rejected(what, text, "is not a valid integer");
  }
  if (errno == ERANGE) throw rejected(what, text, "is out of range");
  return parsed;
}

int parse_int(const std::string& what, const std::string& text) {
  const long parsed = parse_long(what, text);
  if (parsed < INT_MIN || parsed > INT_MAX) {
    throw rejected(what, text, "is out of range");
  }
  return static_cast<int>(parsed);
}

double parse_double(const std::string& what, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (text.empty() || end != begin + text.size()) {
    throw rejected(what, text, "is not a valid number");
  }
  if (errno == ERANGE) throw rejected(what, text, "is out of range");
  if (!std::isfinite(parsed)) throw rejected(what, text, "is not a finite number");
  return parsed;
}

long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return parse_long(name, value);
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return parse_double(name, value);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? std::string(value) : fallback;
}

}  // namespace contango
