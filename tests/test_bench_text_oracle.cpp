// Differential test of the `.bench` text reader against the istream parser
// it replaced (tests/bench_text_reference.h).  Every input is either
// accepted by both, with bit-identical benchmarks, or rejected by both on
// the same line (std::invalid_argument from validate() counts as the same
// outcome).  The one exception: a line the old parser read leniently (a
// numeric field that does not end at whitespace, or a dropped malformed
// last `corners` value) is a BenchmarkParseError on that line now.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_mutants.h"
#include "bench_text_reference.h"
#include "netlist/binio.h"
#include "netlist/io.h"

namespace contango {
namespace {

struct Outcome {
  enum Kind { kAccepted, kParseError, kInvalid } kind = kAccepted;
  std::size_t line = 0;   ///< parse errors: the line
  std::string bytes;      ///< accepted: the `.cbench` image (exact doubles)
  double vdd_nom = 0.0;   ///< accepted: not stored in `.cbench`
  std::string what;
};

Outcome outcome_of(const std::function<Benchmark(std::istream&)>& read,
                   const std::string& text) {
  std::istringstream in(text);
  Outcome o;
  try {
    const Benchmark bench = read(in);
    std::ostringstream image;
    write_cbench(bench, image);
    o.bytes = image.str();
    o.vdd_nom = bench.tech.vdd_nom;
  } catch (const BenchmarkParseError& e) {
    o.kind = Outcome::kParseError;
    o.line = e.line();
    o.what = e.what();
  } catch (const std::invalid_argument& e) {
    o.kind = Outcome::kInvalid;
    o.what = e.what();
  }
  return o;
}

/// Checks one input; returns the old reader's lenient line (0 if none).
std::size_t expect_same_outcome(const std::string& text) {
  std::size_t lenient_line = 0;
  const Outcome want = outcome_of(
      [&](std::istream& in) { return reference::read_benchmark(in, "<in>", &lenient_line); },
      text);
  const Outcome got =
      outcome_of([](std::istream& in) { return read_benchmark(in, "<in>"); }, text);
  if (lenient_line != 0) {
    EXPECT_EQ(got.kind, Outcome::kParseError) << got.what;
    EXPECT_EQ(got.line, lenient_line) << got.what;
    return lenient_line;
  }
  EXPECT_EQ(got.kind, want.kind) << "old: " << want.what << "\nnew: " << got.what;
  if (got.kind == want.kind) {
    EXPECT_EQ(got.line, want.line) << "old: " << want.what << "\nnew: " << got.what;
    EXPECT_TRUE(got.bytes == want.bytes) << "parsed benchmarks differ";
    EXPECT_EQ(std::memcmp(&got.vdd_nom, &want.vdd_nom, sizeof(double)), 0);
  }
  return 0;
}

TEST(BenchTextOracle, StockFilesAndTheirMutantsMatchTheIstreamReader) {
  const std::vector<std::string> files = mutants::stock_bench_files();
  ASSERT_EQ(files.size(), 10u);
  int lenient = 0;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const std::string text = mutants::read_text(path);
    expect_same_outcome(text);
    Rng bytes = mutants::file_rng(mutants::kByteSeed, path);
    Rng tokens = mutants::file_rng(mutants::kTokenSeed, path);
    for (int m = 0; m < mutants::kMutantsPerKind; ++m) {
      SCOPED_TRACE("mutant " + std::to_string(m));
      if (expect_same_outcome(mutants::byte_mutant(text, bytes)) != 0) ++lenient;
    }
    for (int m = 0; m < mutants::kMutantsPerKind; ++m) {
      SCOPED_TRACE("token mutant " + std::to_string(m));
      if (expect_same_outcome(mutants::token_mutant(text, tokens)) != 0) ++lenient;
    }
  }
  // A byte edit that splits a number in two ("12.5.3", "1-2") shows up in
  // a few mutants; report how many took the exception.
  std::printf("mutants the old reader read leniently: %d of 2400\n", lenient);
}

/// A small valid benchmark whose line 9 is `sink a <x> <y> <cap>`.
std::string with_sink_line(const std::string& sink) {
  return "units um ps fF kohm\n"
         "name t\n"
         "die 0 0 100 100\n"
         "source 0 0\n"
         "source_res 0.1\n"
         "corners 1.2 1.0\n"
         "wire w 0.0001 0.0002\n"
         "inverter inv 1 2 3 4\n" +
         sink + "\n";
}

TEST(BenchTextOracle, NumberEdgeCasesMatchTheIstreamReader) {
  const char* const kNumbers[] = {
      "+5",     "1e-400", "-1e-400", "4e-320",  "1e400",  "-1e400", "nan",
      "-nan",   "inf",    "+inf",    "infinity", "0x10",  "7e",     "-0",
      ".5",     "5.",     "+.5",     "-.5",     "+-5",    "++5",    "-+5",
      "1.e1",   "1e+1",   "1E1",     "1e+-1",   ".",      "+",      "-",
      "e5",     "00012",  "5e",      "0e999999", "99999999999999999999999",
      "2.4703282292062327e-324",     "2.4703282292062328e-324",
      "1.7976931348623157e308",      "1.7976931348623159e308",
      "0.1000000000000000055511151231257827"};
  for (const char* v : kNumbers) {
    SCOPED_TRACE(v);
    const std::string n(v);
    expect_same_outcome(with_sink_line("sink a " + n + " 50 1"));
    expect_same_outcome(with_sink_line("sink a 50 50 " + n));
    expect_same_outcome(with_sink_line("sink a 50 50 1\nsinks " + n));
    expect_same_outcome(with_sink_line("sink a 50 50 1\ncorners 1.2 " + n));
    expect_same_outcome(with_sink_line("sink a 50 50 1\nsource_res " + n));
    expect_same_outcome(with_sink_line("sink a 50 50 1\nsink_window 0 " + n + " inf"));
    expect_same_outcome(
        with_sink_line("sink a 50 50 1\ndomain d\nsink_domain " + n + " d"));
  }
}

TEST(BenchTextOracle, LenientLinesAreTheOnlyDivergence) {
  // The old reader took `12.5.3` as 12.5 then .3, `1-2` as 1 then -2 (a
  // benchmark that validate() then refused: y = -2 lies outside the die),
  // and `0clk` as index 0 in domain `clk`.
  EXPECT_EQ(expect_same_outcome(with_sink_line("sink q 12.5.3 4")), 9u);
  EXPECT_EQ(expect_same_outcome(with_sink_line("sink q 1-2 3")), 9u);
  EXPECT_EQ(expect_same_outcome(with_sink_line("sink q 1 2 3\ndomain clk\nsink_domain 0clk")), 11u);
  // And a malformed last corner it dropped.
  EXPECT_EQ(expect_same_outcome(with_sink_line("sink q 1 2 3\ncorners 1.2 1e400")), 10u);
}

}  // namespace
}  // namespace contango
