// Seeded corruptions of the checked-in `benchmarks/*_s1.bench` files: byte
// edits and token/line edits.  The same generators and seeds as
// test_bench_fuzz, so a test that includes this header sees the same
// 2,400 mutants (10 files x 120 per kind x 2 kinds).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/io.h"
#include "util/rng.h"

namespace contango::mutants {

constexpr int kMutantsPerKind = 120;  ///< per file, per mutation kind

inline std::vector<std::string> stock_bench_files() {
  std::vector<std::string> files;
  for (const std::string& path :
       list_benchmark_files(std::string(CONTANGO_SOURCE_DIR) + "/benchmarks")) {
    if (path.size() > 9 && path.compare(path.size() - 9, 9, "_s1.bench") == 0) {
      files.push_back(path);
    }
  }
  return files;
}

inline std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

inline std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One to three byte edits: a bit flip, a byte overwritten, deleted or
/// inserted, or the tail cut off.
inline std::string byte_mutant(const std::string& text, Rng& rng) {
  static const std::string kInserts = {'\0', '\n', '\r', '\t', ' ', '-', '+',
                                       '.',  'e',  'E',  '9',  '#', 'x', '\x7f'};
  std::string s = text;
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t at = pick(rng, s.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:
        s[at] = static_cast<char>(s[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 1:
        s[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2:
        s.erase(at, 1);
        break;
      case 3:
        s.insert(at, 1, kInserts[pick(rng, kInserts.size())]);
        break;
      default:
        s.resize(at);
        break;
    }
  }
  return s;
}

inline std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

inline std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string t; in >> t;) tokens.push_back(t);
  return tokens;
}

/// One token or line edit: a token replaced by a hostile value, deleted
/// or doubled; a line deleted, doubled or swapped with another.
inline std::string token_mutant(const std::string& text, Rng& rng) {
  static const char* const kValues[] = {
      "0",    "-1",    "-0",     "1e308",  "-1e308", "1e-320", "nan",
      "inf",  "-inf",  "abc",    "0x10",   "1.5.5",  "+",      "#",
      "1e",   "99999999999999999999999", "-2147483649",       "4294967296",
      "sink", "wire",  "units",  "corners"};
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) return text;
  const std::size_t li = pick(rng, lines.size());
  std::vector<std::string> tokens = split_tokens(lines[li]);
  const auto op = rng.uniform_int(0, 5);
  if (op < 3 && !tokens.empty()) {
    const std::size_t ti = pick(rng, tokens.size());
    if (op == 0) {
      tokens[ti] = kValues[pick(rng, std::size(kValues))];
    } else if (op == 1) {
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(ti));
    } else {
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(ti), tokens[ti]);
    }
    std::string joined;
    for (const std::string& t : tokens) joined += (joined.empty() ? "" : " ") + t;
    lines[li] = joined;
  } else if (op == 3) {
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(li));
  } else if (op == 4) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(li), lines[li]);
  } else {
    std::swap(lines[li], lines[pick(rng, lines.size())]);
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// Seeds of the two kinds, as in test_bench_fuzz.
constexpr std::uint64_t kByteSeed = 20261019;
constexpr std::uint64_t kTokenSeed = 20261020;

/// The generator for one file's mutants of one kind.
inline Rng file_rng(std::uint64_t seed, const std::string& path) {
  return Rng(seed ^ std::hash<std::string>{}(path.substr(path.rfind('/') + 1)));
}

}  // namespace contango::mutants
