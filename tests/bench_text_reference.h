// Test oracle for the `.bench` text reader: the istream parser that
// read_benchmark used before it moved to whitespace-split fields and
// std::from_chars.  Each line goes through a fresh std::istringstream and
// each field through `operator>>`, so numbers follow num_get's rules.
// Production must accept every input this parser accepts, with
// bit-identical doubles, and reject everything else on the same line.
//
// There are two exceptions, and the oracle marks both.  In each case the
// parser read a malformed line without complaint:
//   - a numeric field that did not end at whitespace: `ss >> double` stops
//     at the first character it cannot use, so `sink q 12.5.3 4` read as
//     (12.5, 0.3, 4), and `sink_domain 5clk` as index 5 in domain `clk`;
//   - a malformed last `corners` value: a failed extraction that consumed
//     characters (`1e400`, `7e`, `+`) ended the loop at end of line, so
//     the trailing-token check saw nothing and the value was dropped.
// The first line where either happens (and the line was otherwise read
// without error) is reported through `lenient_line`; production rejects
// that line.

#pragma once

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "netlist/benchmark.h"
#include "netlist/io.h"

namespace contango::reference {

/// Set when a numeric field stopped before whitespace or end of line.
struct Lenience {
  bool seen = false;
};

/// `in >> v`, noting in `lenience` when v ended before whitespace.
template <typename T>
struct Num {
  T& v;
  Lenience& lenience;
};

template <typename T>
std::istream& operator>>(std::istream& in, Num<T> n) {
  if (in >> n.v && !in.eof()) {
    // sgetc, not peek: peek would set failbit at end of stream.
    const int c = in.rdbuf()->sgetc();
    if (c != std::char_traits<char>::eof() &&
        !std::isspace(static_cast<unsigned char>(c))) {
      n.lenience.seen = true;
    }
  }
  return in;
}

inline bool parse_window_bound(const std::string& token, double* out) {
  if (token == "inf" || token == "+inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (token.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  *out = v;
  return true;
}

/// The istream `.bench` reader.  `lenient_line` (if given) receives the
/// first line read under one of the two exceptions above, or 0.
inline Benchmark read_benchmark(std::istream& in, const std::string& context,
                                std::size_t* lenient_line = nullptr) {
  static constexpr const char* kUnits[4] = {"um", "ps", "fF", "kohm"};
  if (lenient_line) *lenient_line = 0;
  Benchmark bench;
  bench.tech.wires.clear();
  bench.tech.inverters.clear();
  bench.tech.corners.clear();

  long declared_sinks = -1;
  long declared_obstacles = -1;

  std::vector<std::pair<std::size_t, std::uint32_t>> pending_sink_domains;
  std::vector<std::pair<std::size_t, ArrivalWindow>> pending_sink_windows;
  std::set<std::size_t> seen_domain_sinks;
  std::set<std::size_t> seen_window_sinks;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    std::string keyword;
    if (!(ss >> keyword)) continue;
    Lenience lenience;
    auto num = [&](auto& v) { return Num<std::remove_reference_t<decltype(v)>>{v, lenience}; };

    auto fail = [&](const std::string& what) {
      throw BenchmarkParseError(context, line_no, what);
    };

    auto domain_index = [&](const std::string& dname) -> std::uint32_t {
      const auto& names = bench.constraints.domain_names;
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == dname) return static_cast<std::uint32_t>(i);
      }
      fail("unknown domain '" + dname + "' (declare it with 'domain' first)");
      return 0;  // unreachable
    };

    if (keyword == "units") {
      std::string u[4];
      if (!(ss >> u[0] >> u[1] >> u[2] >> u[3])) {
        fail("units needs four tokens: um ps fF kohm");
      }
      for (int i = 0; i < 4; ++i) {
        if (u[i] != kUnits[i]) fail("unsupported units");
      }
    } else if (keyword == "name") {
      if (!(ss >> bench.name)) fail("name needs one token");
    } else if (keyword == "die") {
      if (!(ss >> num(bench.die.xlo) >> num(bench.die.ylo) >> num(bench.die.xhi) >>
            num(bench.die.yhi))) {
        fail("die needs four coordinates: xlo ylo xhi yhi");
      }
    } else if (keyword == "source") {
      if (!(ss >> num(bench.source.x) >> num(bench.source.y))) {
        fail("source needs two coordinates: x y");
      }
    } else if (keyword == "source_res") {
      if (!(ss >> num(bench.source_res))) fail("source_res needs one number");
    } else if (keyword == "slew_limit") {
      if (!(ss >> num(bench.tech.slew_limit))) fail("slew_limit needs one number");
    } else if (keyword == "cap_limit") {
      if (!(ss >> num(bench.tech.cap_limit))) fail("cap_limit needs one number");
    } else if (keyword == "supply_alpha") {
      if (!(ss >> num(bench.tech.supply_alpha))) fail("supply_alpha needs one number");
    } else if (keyword == "rise_fall_ratio") {
      if (!(ss >> num(bench.tech.rise_fall_ratio))) fail("rise_fall_ratio needs one number");
    } else if (keyword == "corners") {
      double v;
      for (;;) {
        // `ss >> v`, split so a failed extraction that consumed characters
        // can be told from one that found none.
        ss >> std::ws;
        if (ss.eof()) break;
        const auto before = ss.tellg();
        if (!(ss >> num(v))) {
          ss.clear();
          if (ss.tellg() != before) lenience.seen = true;
          break;
        }
        bench.tech.corners.push_back(v);
      }
      if (bench.tech.corners.empty()) fail("corners needs at least one voltage");
      bench.tech.vdd_nom = bench.tech.corners.front();
    } else if (keyword == "wire") {
      WireType w;
      if (!(ss >> w.name >> num(w.r_per_um) >> num(w.c_per_um))) {
        fail("wire needs: name kohm_per_um ff_per_um");
      }
      bench.tech.wires.push_back(w);
    } else if (keyword == "inverter") {
      InverterType inv;
      if (!(ss >> inv.name >> num(inv.input_cap) >> num(inv.output_cap) >>
            num(inv.output_res) >> num(inv.intrinsic_delay))) {
        fail("inverter needs: name cin_ff cout_ff rout_kohm intrinsic_ps");
      }
      bench.tech.inverters.push_back(inv);
    } else if (keyword == "sinks") {
      if (!(ss >> num(declared_sinks)) || declared_sinks < 0) {
        fail("sinks needs a non-negative count");
      }
    } else if (keyword == "sink") {
      Sink s;
      if (!(ss >> s.name >> num(s.position.x) >> num(s.position.y) >> num(s.cap))) {
        fail("sink needs: name x y cap_ff");
      }
      bench.sinks.push_back(s);
    } else if (keyword == "obstacles") {
      if (!(ss >> num(declared_obstacles)) || declared_obstacles < 0) {
        fail("obstacles needs a non-negative count");
      }
    } else if (keyword == "obstacle") {
      Rect r;
      if (!(ss >> num(r.xlo) >> num(r.ylo) >> num(r.xhi) >> num(r.yhi))) {
        fail("obstacle needs four coordinates: xlo ylo xhi yhi");
      }
      if (r.xhi <= r.xlo || r.yhi <= r.ylo) fail("malformed obstacle");
      bench.obstacle_rects.push_back(r);
    } else if (keyword == "domain") {
      std::string dname;
      if (!(ss >> dname)) fail("domain needs one name token");
      bench.constraints.domain_names.push_back(dname);
    } else if (keyword == "domain_bound") {
      std::string a, b;
      DomainBound bound;
      if (!(ss >> a >> b >> num(bound.bound))) {
        fail("domain_bound needs: domain_a domain_b skew_ps");
      }
      bound.a = domain_index(a);
      bound.b = domain_index(b);
      bench.constraints.domain_bounds.push_back(bound);
    } else if (keyword == "sink_domain") {
      long index = -1;
      std::string dname;
      if (!(ss >> num(index) >> dname) || index < 0) {
        fail("sink_domain needs: sink_index domain_name");
      }
      if (!seen_domain_sinks.insert(static_cast<std::size_t>(index)).second) {
        fail("duplicate sink_domain");
      }
      pending_sink_domains.emplace_back(static_cast<std::size_t>(index),
                                        domain_index(dname));
    } else if (keyword == "sink_window") {
      long index = -1;
      std::string lo_token, hi_token;
      if (!(ss >> num(index) >> lo_token >> hi_token) || index < 0) {
        fail("sink_window needs: sink_index lo_ps hi_ps");
      }
      ArrivalWindow w;
      if (!parse_window_bound(lo_token, &w.lo)) fail("malformed sink_window bound");
      if (!parse_window_bound(hi_token, &w.hi)) fail("malformed sink_window bound");
      if (!seen_window_sinks.insert(static_cast<std::size_t>(index)).second) {
        fail("duplicate sink_window");
      }
      pending_sink_windows.emplace_back(static_cast<std::size_t>(index), w);
    } else {
      fail("unknown keyword '" + keyword + "'");
    }

    ss.clear();
    std::string extra;
    if (ss >> extra) fail("unexpected trailing token '" + extra + "'");
    if (lenience.seen && lenient_line && *lenient_line == 0) *lenient_line = line_no;
  }

  auto check_count = [&](long declared, std::size_t found, const char* what) {
    if (declared < 0 || declared == static_cast<long>(found)) return;
    throw BenchmarkParseError(context, line_no, std::string(what) + " count mismatch");
  };
  check_count(declared_sinks, bench.sinks.size(), "sink");
  check_count(declared_obstacles, bench.obstacle_rects.size(), "obstacle");

  auto check_sink_index = [&](std::size_t index, const char* what) {
    if (index < bench.sinks.size()) return;
    throw BenchmarkParseError(context, line_no, std::string(what) + " index out of range");
  };
  if (!pending_sink_domains.empty()) {
    bench.constraints.sink_domains.assign(bench.sinks.size(), 0);
    for (const auto& entry : pending_sink_domains) {
      check_sink_index(entry.first, "sink_domain");
      bench.constraints.sink_domains[entry.first] = entry.second;
    }
  }
  if (!pending_sink_windows.empty()) {
    bench.constraints.sink_windows.assign(bench.sinks.size(), ArrivalWindow{});
    for (const auto& entry : pending_sink_windows) {
      check_sink_index(entry.first, "sink_window");
      bench.constraints.sink_windows[entry.first] = entry.second;
    }
  }

  if (bench.tech.corners.empty()) bench.tech.corners = {1.2, 1.0};
  validate(bench);
  return bench;
}

}  // namespace contango::reference
