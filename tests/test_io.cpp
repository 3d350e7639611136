#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "cts/dme.h"
#include "io/svg.h"
#include "io/table.h"
#include "netlist/generators.h"
#include "util/env.h"
#include "util/log.h"

namespace contango {
namespace {

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  // Header, separator, two rows.
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Four lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TextTable, MissingCellsPadAndExtraCellsThrow) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});  // padded
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::invalid_argument);
  EXPECT_NO_THROW(t.to_string());
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(TextTable, NumericColumnsRightAlignUnderWideHeaders) {
  // Counter columns are usually much narrower than their header
  // ("Batched", "Full evals"); digits must line up on the right edge so
  // magnitudes stay comparable down the column.  "n/a" counts as numeric
  // (it is num()'s non-finite rendering); any other non-numeric cell
  // flips its column back to left-aligned.
  TextTable t({"Benchmark", "Batched", "Status"});
  t.add_row({"r1", "12", "ok"});
  t.add_row({"long_name", "34567", "n/a"});
  t.add_row({"r3", "n/a", "FAILED: x"});
  const std::string s = t.to_string();

  std::vector<std::string> lines;
  for (std::size_t pos = 0, nl; pos < s.size(); pos = nl + 1) {
    nl = s.find('\n', pos);
    lines.push_back(s.substr(pos, nl - pos));
  }
  ASSERT_EQ(lines.size(), 5u);  // header, separator, three rows

  // No trailing whitespace on any line (left-aligned last columns used to
  // pad to full width).
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_NE(line.back(), ' ') << "trailing space in: \"" << line << "\"";
  }

  // "Batched" column: all cells numeric (incl. "n/a") -> right-aligned,
  // i.e. every cell ends at the same column as the header's last char.
  const std::size_t batched_end = lines[0].find("Batched") + 7;
  EXPECT_EQ(lines[2].find("12") + 2, batched_end);
  EXPECT_EQ(lines[3].find("34567") + 5, batched_end);
  EXPECT_EQ(lines[4].find("n/a") + 3, batched_end);

  // "Benchmark" (names) and "Status" (contains "FAILED: x") columns stay
  // left-aligned: cells start where the header starts.
  EXPECT_EQ(lines[2].find("r1"), lines[0].find("Benchmark"));
  const std::size_t status_start = lines[0].find("Status");
  EXPECT_EQ(lines[2].find("ok"), status_start);
  EXPECT_EQ(lines[4].find("FAILED"), status_start);
}

TEST(TextTable, NonFiniteMetricsRenderAsNa) {
  // Raw "inf"/"nan" cells break the suite tables' downstream parsers;
  // io/json already emits null for non-finite doubles, the table path
  // renders "n/a".
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(TextTable::num(inf, 2), "n/a");
  EXPECT_EQ(TextTable::num(-inf, 2), "n/a");
  EXPECT_EQ(TextTable::num(std::numeric_limits<double>::quiet_NaN(), 3), "n/a");
}

TEST(Svg, RendersAllElementClasses) {
  const Benchmark bench = generate_ispd_like(ispd09_suite_params(3));
  ClockTree tree = build_zst(bench);
  // Give one node a buffer and one edge a snake so all markers render.
  for (NodeId id : tree.topological_order()) {
    if (id != tree.root() && !tree.node(id).is_sink() &&
        tree.node(id).children.size() == 1) {
      tree.make_buffer(id, CompositeBuffer{0, 8});
      tree.node(id).snake = 100.0;
      break;
    }
  }
  std::vector<Ps> slack(tree.size(), 1.0);
  const std::string svg = render_svg(bench, tree, slack);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);  // wires
  EXPECT_NE(svg.find("<rect"), std::string::npos);      // obstacles/buffers
  EXPECT_NE(svg.find("<path"), std::string::npos);      // sink crosses
  EXPECT_NE(svg.find("rgb("), std::string::npos);       // slack gradient
}

TEST(Svg, SlackGradientSpansRedToGreen) {
  Benchmark bench;
  bench.name = "svg";
  bench.die = Rect{0, 0, 1000, 1000};
  bench.source = Point{0, 0};
  bench.tech = ispd09_technology();
  bench.sinks.push_back(Sink{"s0", Point{500, 500}, 5.0});
  bench.sinks.push_back(Sink{"s1", Point{900, 100}, 5.0});
  ClockTree tree;
  const NodeId root = tree.add_source({0, 0});
  const NodeId mid = tree.add_child(root, NodeKind::kInternal, {400, 100});
  const NodeId s0 = tree.add_child(mid, NodeKind::kSink, {500, 500});
  tree.node(s0).sink_index = 0;
  const NodeId s1 = tree.add_child(mid, NodeKind::kSink, {900, 100});
  tree.node(s1).sink_index = 1;

  std::vector<Ps> slack(tree.size(), 0.0);
  slack[s0] = 0.0;    // critical: red
  slack[s1] = 100.0;  // relaxed: green
  const std::string svg = render_svg(bench, tree, slack);
  EXPECT_NE(svg.find("rgb(220,0,40)"), std::string::npos);   // full red
  EXPECT_NE(svg.find("rgb(0,180,40)"), std::string::npos);   // full green
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("CONTANGO_TEST_LONG", "42", 1);
  EXPECT_EQ(env_long("CONTANGO_TEST_LONG", 7), 42);
  EXPECT_EQ(env_long("CONTANGO_TEST_UNSET_XYZ", 7), 7);
  // A set but malformed or non-finite value is a configuration mistake:
  // it throws naming the variable instead of running the fallback.
  const auto expect_rejected = [](const char* value, auto read) {
    SCOPED_TRACE(value);
    ::setenv("CONTANGO_TEST_KNOB", value, 1);
    try {
      read("CONTANGO_TEST_KNOB");
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("CONTANGO_TEST_KNOB"),
                std::string::npos);
    }
  };
  const auto read_long = [](const char* name) { env_long(name, 7); };
  const auto read_double = [](const char* name) { env_double(name, 1.0); };
  expect_rejected("notanumber", read_long);
  expect_rejected("nan", read_long);
  expect_rejected("inf", read_long);
  expect_rejected("notanumber", read_double);
  expect_rejected("nan", read_double);
  expect_rejected("inf", read_double);

  ::setenv("CONTANGO_TEST_DOUBLE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("CONTANGO_TEST_DOUBLE", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(env_double("CONTANGO_TEST_UNSET_XYZ", 1.0), 1.0);

  EXPECT_EQ(env_string("CONTANGO_TEST_UNSET_XYZ", "dflt"), "dflt");
  ::unsetenv("CONTANGO_TEST_LONG");
  ::unsetenv("CONTANGO_TEST_DOUBLE");
  ::unsetenv("CONTANGO_TEST_KNOB");
}

TEST(Log, LevelFiltering) {
  const LogLevel saved = Log::level();
  Log::set_level(LogLevel::kSilent);
  Log::error("this must not crash %d", 1);
  Log::set_level(LogLevel::kDebug);
  Log::debug("visible %s", "ok");
  Log::set_level(saved);
}

}  // namespace
}  // namespace contango
