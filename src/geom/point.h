#pragma once

#include <cmath>
#include <ostream>

#include "util/units.h"

namespace contango {

/// 2-D point in micrometers.  Layout geometry throughout Contango is
/// rectilinear (Manhattan); distances between points are L1 by default.
struct Point {
  Um x = 0.0;
  Um y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }
};

/// Manhattan (L1) distance, the wirelength of a shortest rectilinear route.
inline Um manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Midpoint of the segment ab.
inline Point midpoint(const Point& a, const Point& b) {
  return Point{(a.x + b.x) / 2.0, (a.y + b.y) / 2.0};
}

/// Approximate equality with absolute tolerance, for geometric predicates
/// on computed (non-grid) coordinates.
inline bool near(const Point& a, const Point& b, double tol = 1e-6) {
  return std::abs(a.x - b.x) <= tol && std::abs(a.y - b.y) <= tol;
}

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

}  // namespace contango
