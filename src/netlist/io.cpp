#include "netlist/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "netlist/binio.h"

namespace contango {
namespace {

/// Canonical unit system of the format; any other `units` line is rejected
/// so files authored in different units fail loudly instead of misscaling.
constexpr const char* kUnits[4] = {"um", "ps", "fF", "kohm"};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Whitespace of the classic "C" locale: space, \t, \n, \v, \f, \r.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Parses a whole field as a number in strtod's decimal form: one leading
/// `+` is allowed (from_chars takes none), and the first character after
/// the sign must be a digit or `.`, which keeps out the `nan`/`inf`
/// spellings from_chars would otherwise read.  Doubles are correctly
/// rounded; overflow is rejected, and a value too small for a subnormal
/// reads as (signed) zero, the way strtod reads it.
template <typename Number>
bool parse_number(std::string_view field, Number* out) {
  const char* first = field.data();
  const char* last = first + field.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return false;
  }
  const char* body = first != last && *first == '-' ? first + 1 : first;
  if (body == last || !(is_digit(*body) || *body == '.')) return false;
  Number v{};
  auto [end, ec] = std::from_chars(first, last, v);
  if constexpr (std::is_floating_point_v<Number>) {
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports both ends of the range; strtod tells them apart.
      v = std::strtod(std::string(first, last).c_str(), nullptr);
      if (!std::isinf(v)) ec = std::errc();
    }
  }
  if (end != last || ec != std::errc()) return false;
  *out = v;
  return true;
}

/// Parses a window bound field: a double, or the one-sided markers
/// `inf` / `+inf` / `-inf` (what the writer prints for unbounded ends).
/// Unlike other numeric fields, it keeps strtod's full grammar.
bool parse_window_bound(const std::string& token, double* out) {
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

/// The whitespace-separated fields of one line, read left to right.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  /// Next field, or an empty view at the end of the line.
  std::string_view next() {
    std::size_t i = 0;
    while (i < rest_.size() && is_space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !is_space(rest_[j])) ++j;
    const std::string_view field = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    return field;
  }

  /// Reads the next fields into `values` (names, doubles or integers);
  /// false when a field is missing or not entirely a number.
  template <typename... T>
  bool read(T&... values) {
    return (read_one(values) && ...);
  }

 private:
  bool read_one(std::string& s) {
    const std::string_view field = next();
    s.assign(field);
    return !field.empty();
  }
  template <typename Number>
  bool read_one(Number& v) {
    return parse_number(next(), &v);
  }

  std::string_view rest_;
};

}  // namespace

Benchmark read_benchmark(std::istream& in, const std::string& context) {
  Benchmark bench;
  bench.tech.wires.clear();
  bench.tech.inverters.clear();
  bench.tech.corners.clear();

  // -1 means "not declared"; when declared, checked against the actual list
  // lengths at EOF so truncated files are detected.
  long declared_sinks = -1;
  long declared_obstacles = -1;

  // Constraint directives reference sinks by index and may precede the sink
  // list, so they are collected here and resolved at EOF.
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
    Fields fields(line);
    const std::string_view keyword = fields.next();
    if (keyword.empty()) continue;

    auto fail = [&](const std::string& what) {
      throw BenchmarkParseError(context, line_no, what);
    };

    // Domains must be declared (with `domain`) before anything refers to
    // them, so references resolve to indices with a line number attached.
    auto domain_index = [&](const std::string& dname) -> std::uint32_t {
      const auto& names = bench.constraints.domain_names;
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == dname) return static_cast<std::uint32_t>(i);
      }
      fail("unknown domain '" + dname + "' (declare it with 'domain' first)");
      return 0;  // unreachable
    };

    // Sink lines first: they are nearly every line of a large file.
    if (keyword == "sink") {
      Sink s;
      if (!fields.read(s.name, s.position.x, s.position.y, s.cap)) {
        fail("sink needs: name x y cap_ff");
      }
      bench.sinks.push_back(std::move(s));
    } else if (keyword == "units") {
      std::string u[4];
      if (!fields.read(u[0], u[1], u[2], u[3])) {
        fail("units needs four tokens: um ps fF kohm");
      }
      for (int i = 0; i < 4; ++i) {
        if (u[i] != kUnits[i]) {
          fail("unsupported units '" + u[0] + " " + u[1] + " " + u[2] + " " +
               u[3] + "' (this parser only reads um ps fF kohm)");
        }
      }
    } else if (keyword == "name") {
      if (!fields.read(bench.name)) fail("name needs one token");
    } else if (keyword == "die") {
      if (!fields.read(bench.die.xlo, bench.die.ylo, bench.die.xhi, bench.die.yhi)) {
        fail("die needs four coordinates: xlo ylo xhi yhi");
      }
    } else if (keyword == "source") {
      if (!fields.read(bench.source.x, bench.source.y)) {
        fail("source needs two coordinates: x y");
      }
    } else if (keyword == "source_res") {
      if (!fields.read(bench.source_res)) fail("source_res needs one number");
    } else if (keyword == "slew_limit") {
      if (!fields.read(bench.tech.slew_limit)) fail("slew_limit needs one number");
    } else if (keyword == "cap_limit") {
      if (!fields.read(bench.tech.cap_limit)) fail("cap_limit needs one number");
    } else if (keyword == "supply_alpha") {
      if (!fields.read(bench.tech.supply_alpha)) fail("supply_alpha needs one number");
    } else if (keyword == "rise_fall_ratio") {
      if (!fields.read(bench.tech.rise_fall_ratio)) fail("rise_fall_ratio needs one number");
    } else if (keyword == "corners") {
      for (std::string_view field = fields.next(); !field.empty(); field = fields.next()) {
        double v = 0.0;
        if (!parse_number(field, &v)) {
          fail("malformed corners voltage '" + std::string(field) + "'");
        }
        bench.tech.corners.push_back(v);
      }
      if (bench.tech.corners.empty()) fail("corners needs at least one voltage");
      bench.tech.vdd_nom = bench.tech.corners.front();
    } else if (keyword == "wire") {
      WireType w;
      if (!fields.read(w.name, w.r_per_um, w.c_per_um)) {
        fail("wire needs: name kohm_per_um ff_per_um");
      }
      bench.tech.wires.push_back(w);
    } else if (keyword == "inverter") {
      InverterType inv;
      if (!fields.read(inv.name, inv.input_cap, inv.output_cap, inv.output_res,
                       inv.intrinsic_delay)) {
        fail("inverter needs: name cin_ff cout_ff rout_kohm intrinsic_ps");
      }
      bench.tech.inverters.push_back(inv);
    } else if (keyword == "sinks") {
      if (!fields.read(declared_sinks) || declared_sinks < 0) {
        fail("sinks needs a non-negative count");
      }
    } else if (keyword == "obstacles") {
      if (!fields.read(declared_obstacles) || declared_obstacles < 0) {
        fail("obstacles needs a non-negative count");
      }
    } else if (keyword == "obstacle") {
      Rect r;
      if (!fields.read(r.xlo, r.ylo, r.xhi, r.yhi)) {
        fail("obstacle needs four coordinates: xlo ylo xhi yhi");
      }
      if (r.xhi <= r.xlo || r.yhi <= r.ylo) {
        fail("malformed obstacle: xhi/yhi must exceed xlo/ylo (got " + line + ")");
      }
      bench.obstacle_rects.push_back(r);
    } else if (keyword == "domain") {
      std::string dname;
      if (!fields.read(dname)) fail("domain needs one name token");
      bench.constraints.domain_names.push_back(dname);
    } else if (keyword == "domain_bound") {
      std::string a, b;
      DomainBound bound;
      if (!fields.read(a, b, bound.bound)) {
        fail("domain_bound needs: domain_a domain_b skew_ps");
      }
      bound.a = domain_index(a);
      bound.b = domain_index(b);
      bench.constraints.domain_bounds.push_back(bound);
    } else if (keyword == "sink_domain") {
      long index = -1;
      std::string dname;
      if (!fields.read(index, dname) || index < 0) {
        fail("sink_domain needs: sink_index domain_name");
      }
      if (!seen_domain_sinks.insert(static_cast<std::size_t>(index)).second) {
        fail("duplicate sink_domain for sink " + std::to_string(index));
      }
      pending_sink_domains.emplace_back(static_cast<std::size_t>(index),
                                        domain_index(dname));
    } else if (keyword == "sink_window") {
      long index = -1;
      std::string lo_token, hi_token;
      if (!fields.read(index, lo_token, hi_token) || index < 0) {
        fail("sink_window needs: sink_index lo_ps hi_ps (bounds may be "
             "-inf/inf)");
      }
      ArrivalWindow w;
      if (!parse_window_bound(lo_token, &w.lo)) {
        fail("malformed sink_window bound '" + lo_token + "'");
      }
      if (!parse_window_bound(hi_token, &w.hi)) {
        fail("malformed sink_window bound '" + hi_token + "'");
      }
      if (!seen_window_sinks.insert(static_cast<std::size_t>(index)).second) {
        fail("duplicate sink_window for sink " + std::to_string(index));
      }
      pending_sink_windows.emplace_back(static_cast<std::size_t>(index), w);
    } else {
      fail("unknown keyword '" + std::string(keyword) + "'");
    }

    // Reject trailing fields on every directive ("die 0 0 1 1 9" is a typo,
    // not a comment).
    const std::string_view extra = fields.next();
    if (!extra.empty()) fail("unexpected trailing token '" + std::string(extra) + "'");
  }

  auto check_count = [&](long declared, std::size_t found, const char* what) {
    if (declared < 0 || declared == static_cast<long>(found)) return;
    const std::string direction =
        declared > static_cast<long>(found) ? " list truncated" : " count mismatch";
    throw BenchmarkParseError(context, line_no,
                              std::string(what) + direction + ": declared " +
                                  std::to_string(declared) + ", found " +
                                  std::to_string(found));
  };
  check_count(declared_sinks, bench.sinks.size(), "sink");
  check_count(declared_obstacles, bench.obstacle_rects.size(), "obstacle");

  // Resolve deferred per-sink constraint entries now that the sink count is
  // final.  Only referenced vectors materialize, so benchmarks without
  // constraint directives keep empty (trivial) blocks.
  auto check_sink_index = [&](std::size_t index, const char* what) {
    if (index < bench.sinks.size()) return;
    throw BenchmarkParseError(context, line_no,
                              std::string(what) + " index " +
                                  std::to_string(index) +
                                  " out of range (have " +
                                  std::to_string(bench.sinks.size()) +
                                  " sinks)");
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

Benchmark read_benchmark_file(const std::string& path) {
  if (ends_with(path, kCbenchExtension)) return read_cbench_file(path);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open benchmark file: " + path);
  return read_benchmark(in, path);
}

std::vector<std::string> list_benchmark_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot read benchmark directory '" + dir +
                             "': " + ec.message());
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string filename = entry.path().filename().string();
    if (ends_with(filename, ".bench") || ends_with(filename, kCbenchExtension)) {
      paths.push_back(entry.path().string());
    }
  }
  // directory_iterator order is unspecified; sort for stable suite order.
  std::sort(paths.begin(), paths.end());
  return paths;
}

namespace {

void require_token_name(const std::string& name, const char* what) {
  if (name.empty() || name.find_first_of(" \t\n\r#") != std::string::npos) {
    throw std::invalid_argument(std::string(what) + " name '" + name +
                                "' is not a plain token (empty, whitespace "
                                "or '#')");
  }
}

/// Formats `.bench` text into a fixed buffer and hands it to the stream
/// whenever the buffer fills (and once at the end), so a stream sees a few
/// large writes rather than one per token.  Doubles print as `%.17g`
/// (std::to_chars, general, precision 17, which round-trips every double),
/// integers in decimal; the stream's own format flags play no part.
class TextWriter {
 public:
  explicit TextWriter(std::ostream& out) : out_(out) {}

  TextWriter& operator<<(std::string_view s) {
    if (s.size() > sizeof buf_ - used_) flush();
    if (s.size() > sizeof buf_) {
      out_.write(s.data(), static_cast<std::streamsize>(s.size()));
    } else {
      std::memcpy(buf_ + used_, s.data(), s.size());
      used_ += s.size();
    }
    return *this;
  }
  TextWriter& operator<<(double v) {
    char digits[32];
    const char* end = std::to_chars(digits, digits + sizeof digits, v,
                                    std::chars_format::general, 17).ptr;
    return *this << std::string_view(digits, static_cast<std::size_t>(end - digits));
  }
  TextWriter& operator<<(std::size_t v) {
    char digits[24];
    const char* end = std::to_chars(digits, digits + sizeof digits, v).ptr;
    return *this << std::string_view(digits, static_cast<std::size_t>(end - digits));
  }

  void flush() {
    out_.write(buf_, static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  std::ostream& out_;
  char buf_[4096];
  std::size_t used_ = 0;
};

void write_benchmark_unchecked(const Benchmark& bench, std::ostream& stream) {
  TextWriter out(stream);
  out << "# contango CNS benchmark\n";
  out << "units " << kUnits[0] << " " << kUnits[1] << " " << kUnits[2] << " "
      << kUnits[3] << "\n";
  out << "name " << bench.name << "\n";
  out << "die " << bench.die.xlo << " " << bench.die.ylo << " " << bench.die.xhi
      << " " << bench.die.yhi << "\n";
  out << "source " << bench.source.x << " " << bench.source.y << "\n";
  out << "source_res " << bench.source_res << "\n";
  out << "slew_limit " << bench.tech.slew_limit << "\n";
  out << "cap_limit " << bench.tech.cap_limit << "\n";
  out << "supply_alpha " << bench.tech.supply_alpha << "\n";
  out << "rise_fall_ratio " << bench.tech.rise_fall_ratio << "\n";
  out << "corners";
  for (double v : bench.tech.corners) out << " " << v;
  out << "\n";
  for (const WireType& w : bench.tech.wires) {
    out << "wire " << w.name << " " << w.r_per_um << " " << w.c_per_um << "\n";
  }
  for (const InverterType& inv : bench.tech.inverters) {
    out << "inverter " << inv.name << " " << inv.input_cap << " "
        << inv.output_cap << " " << inv.output_res << " "
        << inv.intrinsic_delay << "\n";
  }
  out << "sinks " << bench.sinks.size() << "\n";
  for (const Sink& s : bench.sinks) {
    out << "sink " << s.name << " " << s.position.x << " " << s.position.y
        << " " << s.cap << "\n";
  }
  out << "obstacles " << bench.obstacle_rects.size() << "\n";
  for (const Rect& r : bench.obstacle_rects) {
    out << "obstacle " << r.xlo << " " << r.ylo << " " << r.xhi << " " << r.yhi
        << "\n";
  }

  // Constraint directives are emitted only for non-trivial blocks, so every
  // legacy benchmark round-trips byte-identically (and keeps its content
  // hash).  Per-sink entries are sparse: only non-default values appear.
  const TimingConstraints& cons = bench.constraints;
  if (!cons.trivial()) {
    for (const std::string& d : cons.domain_names) {
      out << "domain " << d << "\n";
    }
    for (const DomainBound& b : cons.domain_bounds) {
      out << "domain_bound " << cons.domain_names[b.a] << " "
          << cons.domain_names[b.b] << " " << b.bound << "\n";
    }
    for (std::size_t i = 0; i < cons.sink_domains.size(); ++i) {
      if (cons.sink_domains[i] == 0) continue;
      out << "sink_domain " << i << " "
          << cons.domain_names[cons.sink_domains[i]] << "\n";
    }
    for (std::size_t i = 0; i < cons.sink_windows.size(); ++i) {
      const ArrivalWindow& w = cons.sink_windows[i];
      if (w.unbounded()) continue;
      out << "sink_window " << i << " " << w.lo << " " << w.hi << "\n";
    }
  }
  out.flush();
}

}  // namespace

void check_writable(const Benchmark& bench) {
  // Names are single tokens in both formats; writing one with whitespace
  // would silently corrupt on read-back.
  require_token_name(bench.name, "benchmark");
  for (const WireType& w : bench.tech.wires) require_token_name(w.name, "wire");
  for (const InverterType& inv : bench.tech.inverters) {
    require_token_name(inv.name, "inverter");
  }
  for (const Sink& s : bench.sinks) require_token_name(s.name, "sink");
  for (const std::string& d : bench.constraints.domain_names) {
    require_token_name(d, "domain");
  }
  if (bench.tech.corners.empty()) {
    throw std::invalid_argument("benchmark '" + bench.name +
                                "': corners needs at least one supply voltage");
  }
  validate(bench);
}

void write_benchmark(const Benchmark& bench, std::ostream& out) {
  check_writable(bench);
  write_benchmark_unchecked(bench, out);
}

void write_benchmark_file(const Benchmark& bench, const std::string& path) {
  check_writable(bench);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write benchmark file: " + path);
  write_benchmark_unchecked(bench, out);
}

namespace {

/// Feeds everything written to it straight into a Hasher.  Lets
/// benchmark_content_hash stream write_benchmark instead of materializing
/// a 1M-sink text image (~60 MB) just to hash it: the writer hands over
/// one 4 KB block per xsputn, and Hasher::update is chunk-invariant, so
/// the digest equals fnv1a128 of the full text.
class HashingStreambuf : public std::streambuf {
 public:
  explicit HashingStreambuf(Hasher& hasher) : hasher_(hasher) {}

 protected:
  int overflow(int ch) override {
    if (ch != traits_type::eof()) {
      const char c = static_cast<char>(ch);
      hasher_.update(&c, 1);
    }
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hasher_.update(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  Hasher& hasher_;
};

}  // namespace

Hash128 benchmark_content_hash(const Benchmark& bench) {
  Hasher hasher;
  HashingStreambuf buf(hasher);
  std::ostream out(&buf);
  write_benchmark(bench, out);
  return hasher.digest();
}

}  // namespace contango
