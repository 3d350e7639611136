// Corruption fuzz of the `.bench` text parser, the text twin of the
// `.cbench` corruption fuzz in test_binio: seeded byte and token mutants of
// every checked-in `benchmarks/*_s1.bench`.  Each mutant must either parse
// into a benchmark that passes validate(), or raise BenchmarkParseError
// naming the input (and its line), or std::invalid_argument naming the
// benchmark, field and value that validate() refused — never another
// exception, a crash or an out-of-bounds read (this file runs under the
// ASan+UBSan CI job).  Parsing only: some parsed mutants describe absurd
// but valid physics on which the flow runs for minutes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/benchmark.h"
#include "netlist/io.h"
#include "util/rng.h"

namespace contango {
namespace {

constexpr int kMutantsPerKind = 120;  ///< per file, per mutation kind

std::vector<std::string> stock_bench_files() {
  std::vector<std::string> files;
  for (const std::string& path :
       list_benchmark_files(std::string(CONTANGO_SOURCE_DIR) + "/benchmarks")) {
    if (path.size() > 9 && path.compare(path.size() - 9, 9, "_s1.bench") == 0) {
      files.push_back(path);
    }
  }
  return files;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// One to three byte edits: a bit flip, a byte overwritten, deleted or
/// inserted, or the tail cut off.
std::string byte_mutant(const std::string& text, Rng& rng) {
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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string t; in >> t;) tokens.push_back(t);
  return tokens;
}

/// One token or line edit: a token replaced by a hostile value, deleted
/// or doubled; a line deleted, doubled or swapped with another.
std::string token_mutant(const std::string& text, Rng& rng) {
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

struct Outcome {
  int parsed = 0;
  int rejected = 0;
};

/// Parses `text`; a benchmark that comes back must pass validate(), and a
/// rejection must name its input or its cause.
void parse_mutant(const std::string& text, const std::string& context,
                  Outcome& outcome) {
  std::istringstream in(text);
  try {
    const Benchmark bench = read_benchmark(in, context);
    EXPECT_NO_THROW(validate(bench)) << context;
    ++outcome.parsed;
  } catch (const BenchmarkParseError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(context + ":", 0), 0u) << what;
    EXPECT_GT(what.size(), context.size() + 2) << what;
    ++outcome.rejected;
  } catch (const std::invalid_argument& e) {
    // validate() names the benchmark, the field and the value.
    EXPECT_NE(std::string(e.what()).find("benchmark"), std::string::npos)
        << context << ": " << e.what();
    ++outcome.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << context << ": unexpected exception: " << e.what();
  }
}

void fuzz_every_stock_file(std::string (*mutate)(const std::string&, Rng&),
                           const char* kind, std::uint64_t seed) {
  const std::vector<std::string> files = stock_bench_files();
  ASSERT_EQ(files.size(), 10u);
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const std::string text = read_text(path);
    ASSERT_FALSE(text.empty());
    Rng rng(seed ^ std::hash<std::string>{}(path.substr(path.rfind('/') + 1)));
    Outcome outcome;
    for (int m = 0; m < kMutantsPerKind; ++m) {
      const std::string context =
          "<" + std::string(kind) + " mutant " + std::to_string(m) + ">";
      parse_mutant(mutate(text, rng), context, outcome);
    }
    // Both outcomes occur: most edits break a directive, and some (a
    // doubled sink cap digit, a dropped comment line) leave a valid file.
    EXPECT_GT(outcome.rejected, 0);
    EXPECT_GT(outcome.parsed, 0);
  }
}

TEST(BenchFuzz, UnmutatedStockFilesParse) {
  for (const std::string& path : stock_bench_files()) {
    std::istringstream in(read_text(path));
    EXPECT_NO_THROW(validate(read_benchmark(in, path))) << path;
  }
}

TEST(BenchFuzz, ByteMutantsParseValidOrNameTheProblem) {
  fuzz_every_stock_file(byte_mutant, "byte", 20261019);
}

TEST(BenchFuzz, TokenMutantsParseValidOrNameTheProblem) {
  fuzz_every_stock_file(token_mutant, "token", 20261020);
}

}  // namespace
}  // namespace contango
