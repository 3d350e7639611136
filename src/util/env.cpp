#include "util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace contango {

long env_long(const char* name, long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || end == nullptr || *end != '\0') {
    throw std::runtime_error(std::string(name) + "='" + value +
                             "' is not a valid integer");
  }
  if (errno == ERANGE) {
    throw std::runtime_error(std::string(name) + "='" + value +
                             "' is out of range");
  }
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || end == nullptr || *end != '\0') {
    throw std::runtime_error(std::string(name) + "='" + value +
                             "' is not a valid number");
  }
  if (errno == ERANGE) {
    throw std::runtime_error(std::string(name) + "='" + value +
                             "' is out of range");
  }
  if (!std::isfinite(parsed)) {
    throw std::runtime_error(std::string(name) + "='" + value +
                             "' is not a finite number");
  }
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? std::string(value) : fallback;
}

}  // namespace contango
