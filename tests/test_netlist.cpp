#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "cts/scenario.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "netlist/library.h"

namespace contango {
namespace {

TEST(Library, Ispd09TableOneValues) {
  const Technology tech = ispd09_technology();
  ASSERT_EQ(tech.inverters.size(), 2u);
  const InverterType& small = tech.inverters[0];
  const InverterType& large = tech.inverters[1];
  EXPECT_DOUBLE_EQ(small.input_cap, 4.2);
  EXPECT_DOUBLE_EQ(small.output_cap, 6.1);
  EXPECT_DOUBLE_EQ(small.output_res, ohms(440.0));
  EXPECT_DOUBLE_EQ(large.input_cap, 35.0);
  EXPECT_DOUBLE_EQ(large.output_cap, 80.0);
  EXPECT_DOUBLE_EQ(large.output_res, ohms(61.2));
}

TEST(Library, CompositeElectricalScaling) {
  const Technology tech = ispd09_technology();
  const CompositeElectrical e8 = tech.electrical(CompositeBuffer{0, 8});
  // Paper Table I row "8X Small": 33.6 fF, 48.8 fF, 55 ohm.
  EXPECT_DOUBLE_EQ(e8.input_cap, 33.6);
  EXPECT_DOUBLE_EQ(e8.output_cap, 48.8);
  EXPECT_DOUBLE_EQ(e8.output_res, ohms(55.0));
}

TEST(Generators, IspdSuiteShape) {
  const auto suite = ispd09_suite();
  ASSERT_EQ(suite.size(), 7u);
  for (const Benchmark& b : suite) {
    EXPECT_FALSE(b.sinks.empty());
    EXPECT_GT(b.tech.cap_limit, 0.0);
    EXPECT_NO_THROW(validate(b));
    for (const Sink& s : b.sinks) {
      EXPECT_FALSE(b.obstacles().blocks_point(s.position))
          << b.name << " sink " << s.name << " inside an obstacle";
    }
  }
  EXPECT_EQ(suite[0].sinks.size(), 121u);
  EXPECT_EQ(suite[6].sinks.size(), 330u);
}

TEST(Generators, Deterministic) {
  const Benchmark a = generate_ispd_like(ispd09_suite_params(0));
  const Benchmark b = generate_ispd_like(ispd09_suite_params(0));
  ASSERT_EQ(a.sinks.size(), b.sinks.size());
  for (std::size_t i = 0; i < a.sinks.size(); ++i) {
    EXPECT_EQ(a.sinks[i].position, b.sinks[i].position);
    EXPECT_DOUBLE_EQ(a.sinks[i].cap, b.sinks[i].cap);
  }
  ASSERT_EQ(a.obstacle_rects.size(), b.obstacle_rects.size());
}

TEST(Generators, TiSamplingIsNested) {
  // Smaller samples are prefixes of larger ones (same seed, same pool),
  // matching the paper's protocol of sampling one 135K-sink chip.
  const Benchmark small = generate_ti_like(100);
  const Benchmark large = generate_ti_like(400);
  ASSERT_EQ(small.sinks.size(), 100u);
  ASSERT_EQ(large.sinks.size(), 400u);
  for (std::size_t i = 0; i < small.sinks.size(); ++i) {
    EXPECT_EQ(small.sinks[i].position, large.sinks[i].position);
  }
}

TEST(Generators, TiDieMatchesPaper) {
  const Benchmark b = generate_ti_like(200);
  EXPECT_DOUBLE_EQ(b.die.width(), 4200.0);
  EXPECT_DOUBLE_EQ(b.die.height(), 3000.0);
}

TEST(BenchmarkIo, RoundTrip) {
  const Benchmark original = generate_ispd_like(ispd09_suite_params(1));
  std::stringstream buffer;
  write_benchmark(original, buffer);
  const Benchmark parsed = read_benchmark(buffer);

  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.die, original.die);
  EXPECT_EQ(parsed.source, original.source);
  ASSERT_EQ(parsed.sinks.size(), original.sinks.size());
  for (std::size_t i = 0; i < original.sinks.size(); ++i) {
    EXPECT_EQ(parsed.sinks[i].name, original.sinks[i].name);
    EXPECT_NEAR(parsed.sinks[i].cap, original.sinks[i].cap, 1e-6);
  }
  ASSERT_EQ(parsed.obstacle_rects.size(), original.obstacle_rects.size());
  ASSERT_EQ(parsed.tech.inverters.size(), original.tech.inverters.size());
  EXPECT_NEAR(parsed.tech.cap_limit, original.tech.cap_limit, 1e-6);
  ASSERT_EQ(parsed.tech.corners.size(), original.tech.corners.size());
}

TEST(BenchmarkIo, RejectsMalformedInput) {
  std::stringstream bad("name x\nfrobnicate 1 2 3\n");
  EXPECT_THROW(read_benchmark(bad), std::runtime_error);
}

TEST(BenchmarkIo, ErrorsCarryLineNumberAndContext) {
  std::stringstream bad("name x\n\nfrobnicate 1 2 3\n");
  try {
    read_benchmark(bad, "weird.bench");
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("weird.bench:3:"), std::string::npos)
        << e.what();
  }
}

TEST(BenchmarkIo, RejectsBadUnits) {
  // nm/ns files must fail loudly instead of parsing misscaled.
  std::stringstream bad("units nm ns fF kohm\nname x\n");
  try {
    read_benchmark(bad);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_NE(std::string(e.what()).find("units"), std::string::npos);
  }
  std::stringstream incomplete("units um ps\n");
  EXPECT_THROW(read_benchmark(incomplete), BenchmarkParseError);
  std::stringstream good(
      "units um ps fF kohm\nname x\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\n"
      "sink s0 50 50 3\ncorners 1.2 1.0\n");
  EXPECT_NO_THROW(read_benchmark(good));
}

TEST(BenchmarkIo, RejectsMalformedObstacle) {
  // xhi < xlo: a syntactically-present but geometrically-impossible rect is
  // a parse error at its own line, not a late validate() failure.
  std::stringstream bad(
      "name x\ndie 0 0 100 100\nsource 50 0\n"
      "obstacle 30 30 10 40\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\nsink s0 50 50 3\n");
  try {
    read_benchmark(bad);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("obstacle"), std::string::npos);
  }
}

TEST(BenchmarkIo, RejectsTruncatedSinkList) {
  std::stringstream bad(
      "name x\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\n"
      "sinks 3\nsink s0 10 10 3\nsink s1 20 20 3\n");
  try {
    read_benchmark(bad);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("declared 3"), std::string::npos);
  }
}

TEST(BenchmarkIo, SurplusEntriesReportCountMismatch) {
  std::stringstream bad(
      "name x\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\n"
      "sinks 1\nsink s0 10 10 3\nsink s1 20 20 3\n");
  try {
    read_benchmark(bad);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    // More entries than declared is a mismatch, not a "truncation".
    EXPECT_NE(std::string(e.what()).find("count mismatch"), std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(BenchmarkIo, RejectsTrailingTokens) {
  std::stringstream bad("name x\ndie 0 0 100 100 9\n");
  try {
    read_benchmark(bad);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
  std::stringstream bad_corners("corners 1.2 oops\n");
  EXPECT_THROW(read_benchmark(bad_corners), BenchmarkParseError);
  std::stringstream comment_ok(
      "name x  # trailing comments are fine\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\nsink s0 50 50 3\n");
  EXPECT_NO_THROW(read_benchmark(comment_ok));
}

TEST(BenchmarkIo, RejectsNumbersThatAbut) {
  // Fields are separated by whitespace: `12.5.3` is not 12.5 then .3, and
  // `1-2` is not 1 then -2.  Both are rejected on their own line.
  for (const char* sink : {"sink q 12.5.3 4", "sink q 1-2 3"}) {
    std::stringstream bad(
        "name x\ndie 0 0 100 100\nsource 50 0\n"
        "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\n" + std::string(sink) + "\n");
    try {
      read_benchmark(bad);
      FAIL() << "expected BenchmarkParseError for '" << sink << "'";
    } catch (const BenchmarkParseError& e) {
      EXPECT_EQ(e.line(), 6u) << e.what();
    }
  }
}

TEST(BenchmarkIo, NumbersFollowTheDecimalGrammar) {
  auto sink_x = [](const std::string& x) {
    std::stringstream in(
        "name x\ndie -100 0 100 100\nsource 50 0\n"
        "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\nsink s0 " + x + " 50 3\n");
    return read_benchmark(in).sinks[0].position.x;
  };
  EXPECT_EQ(sink_x("+5"), 5.0);
  EXPECT_EQ(sink_x(".5"), 0.5);
  EXPECT_EQ(sink_x("5."), 5.0);
  EXPECT_EQ(sink_x("1e-400"), 0.0);               // underflow reads as zero
  EXPECT_TRUE(std::signbit(sink_x("-1e-400")));   // ... keeping its sign
  EXPECT_EQ(sink_x("4e-320"), 4e-320);            // subnormals are kept
  EXPECT_EQ(sink_x("0.1"), 0.1);                  // correctly rounded
  for (const char* bad : {"1e400", "nan", "inf", "0x10", "7e", "+-5", "."}) {
    EXPECT_THROW(sink_x(bad), BenchmarkParseError) << bad;
  }
}

TEST(BenchmarkIo, WriterRejectsNamesThatCannotRoundTrip) {
  Benchmark b;
  b.name = "my design";  // would parse back as "my" + trailing token
  b.die = Rect{0, 0, 100, 100};
  b.source = Point{50, 0};
  b.tech = ispd09_technology();
  b.sinks.push_back(Sink{"s0", Point{50, 50}, 5.0});
  std::stringstream out;
  EXPECT_THROW(write_benchmark(b, out), std::invalid_argument);
  b.name = "my_design";
  b.sinks[0].name = "";
  EXPECT_THROW(write_benchmark(b, out), std::invalid_argument);
  b.sinks[0].name = "s0";
  EXPECT_NO_THROW(write_benchmark(b, out));
}

TEST(BenchmarkIo, RejectsTruncatedObstacleList) {
  std::stringstream bad(
      "name x\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\nsink s0 50 50 3\n"
      "obstacles 2\nobstacle 10 10 20 20\n");
  EXPECT_THROW(read_benchmark(bad), BenchmarkParseError);
}

TEST(BenchmarkIo, CountDeclarationsAcceptedWhenExact) {
  std::stringstream in(
      "name x\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\n"
      "sinks 2\nsink s0 10 10 3\nsink s1 20 20 3\n"
      "obstacles 1\nobstacle 30 30 40 40\n");
  const Benchmark b = read_benchmark(in);
  EXPECT_EQ(b.sinks.size(), 2u);
  EXPECT_EQ(b.obstacle_rects.size(), 1u);
}

TEST(Generators, RingDeterministicAndLegal) {
  RingGenParams params;
  params.seed = 11;
  const Benchmark a = generate_ring(params);
  const Benchmark b = generate_ring(params);
  ASSERT_EQ(a.sinks.size(), static_cast<std::size_t>(params.num_sinks));
  for (std::size_t i = 0; i < a.sinks.size(); ++i) {
    EXPECT_EQ(a.sinks[i].position, b.sinks[i].position);
  }
  // The central macro must stay sink-free.
  ASSERT_FALSE(a.obstacle_rects.empty());
  for (const Sink& s : a.sinks) {
    EXPECT_FALSE(a.obstacles().blocks_point(s.position))
        << "sink " << s.name << " inside the core macro";
  }
}

TEST(BenchmarkIo, RejectsInvalidBenchmark) {
  // Sink outside the die.
  std::stringstream bad(
      "name x\ndie 0 0 100 100\nsource 50 0\n"
      "wire w1 0.0001 0.2\ninverter i 4 6 0.4 6\n"
      "sink s0 500 500 3\ncorners 1.2 1.0\n");
  EXPECT_THROW(read_benchmark(bad), std::invalid_argument);
}

TEST(Validate, SourceMustBeInsideDie) {
  Benchmark b;
  b.name = "t";
  b.die = Rect{0, 0, 100, 100};
  b.source = Point{500, 0};
  b.tech = ispd09_technology();
  b.sinks.push_back(Sink{"s0", Point{50, 50}, 5.0});
  EXPECT_THROW(validate(b), std::invalid_argument);
  b.source = Point{50, 0};
  EXPECT_NO_THROW(validate(b));
}

}  // namespace
}  // namespace contango

namespace contango {
namespace {

TEST(BenchmarkIo, WriterReproducesStockFilesByteForByte) {
  // Every checked-in benchmarks/<family>_s1.bench is the writer's output for
  // the family at seed 1, and parsing it and writing it again gives the
  // same bytes.
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  ASSERT_EQ(registry.families().size(), 10u);
  for (const ScenarioRegistry::Family& family : registry.families()) {
    const std::string path =
        std::string(CONTANGO_SOURCE_DIR) + "/benchmarks/" + family.name + "_s1.bench";
    std::ifstream in(path, std::ios::binary);
    const std::string file(std::istreambuf_iterator<char>(in), {});
    ASSERT_FALSE(file.empty()) << path;

    std::ostringstream generated;
    write_benchmark(registry.make(family.name, 1), generated);
    EXPECT_TRUE(generated.str() == file) << path << " differs from the generated text";

    std::istringstream text(file);
    std::ostringstream rewritten;
    write_benchmark(read_benchmark(text, path), rewritten);
    EXPECT_TRUE(rewritten.str() == file) << path << " does not round-trip";
  }
}

}  // namespace
}  // namespace contango
