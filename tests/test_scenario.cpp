#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "cts/scenario.h"
#include "netlist/io.h"

namespace contango {
namespace {

TEST(ScenarioRegistry, BuiltinHasTheTenStockFamilies) {
  const std::vector<std::string> names = ScenarioRegistry::builtin().names();
  const std::vector<std::string> expected = {
      "uniform",   "clustered",   "ring",        "obstacle_dense",
      "high_fanout", "mixed_cap", "huge",        "multidomain",
      "usefulskew", "mega"};
  EXPECT_EQ(names, expected);
  for (const auto& family : ScenarioRegistry::builtin().families()) {
    EXPECT_FALSE(family.description.empty());
    EXPECT_GT(family.default_sinks, 0);
  }
}

TEST(ScenarioRegistry, MakeIsDeterministicInSeed) {
  const Benchmark a = make_scenario("clustered", 42);
  const Benchmark b = make_scenario("clustered", 42);
  const Benchmark c = make_scenario("clustered", 43);
  ASSERT_EQ(a.sinks.size(), b.sinks.size());
  for (std::size_t i = 0; i < a.sinks.size(); ++i) {
    EXPECT_EQ(a.sinks[i].position, b.sinks[i].position);
    EXPECT_DOUBLE_EQ(a.sinks[i].cap, b.sinks[i].cap);
  }
  // A different seed actually moves the sinks.
  ASSERT_EQ(a.sinks.size(), c.sinks.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < a.sinks.size() && !any_differs; ++i) {
    any_differs = !(a.sinks[i].position == c.sinks[i].position);
  }
  EXPECT_TRUE(any_differs);
}

TEST(ScenarioRegistry, InstanceNamingAndSinkOverride) {
  const Benchmark def = make_scenario("ring", 5);
  EXPECT_EQ(def.name, "ring_s5");
  EXPECT_EQ(def.sinks.size(), 96u);  // family default

  const Benchmark big = make_scenario("ring", 5, 200);
  EXPECT_EQ(big.name, "ring_s5_n200");
  EXPECT_EQ(big.sinks.size(), 200u);

  EXPECT_THROW(make_scenario("ring", 5, -1), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownFamilyThrowsListingKnownOnes) {
  try {
    make_scenario("warp_core", 1);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("warp_core"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ring"), std::string::npos);
  }
}

TEST(ScenarioRegistry, MakeAllCoversEveryFamilyOnce) {
  const std::vector<Benchmark> all = ScenarioRegistry::builtin().make_all(3);
  ASSERT_EQ(all.size(), ScenarioRegistry::builtin().families().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name,
              ScenarioRegistry::builtin().families()[i].name + "_s3");
    EXPECT_FALSE(all[i].sinks.empty());
  }
}

// Acceptance criterion of the benchmark-I/O subsystem: write -> read ->
// write of every registered scenario is byte-identical, so the on-disk
// format is a lossless, stable serialization of everything the registry
// can produce.
TEST(ScenarioRegistry, RoundTripIsBitIdenticalForEveryFamily) {
  for (const std::string& name : ScenarioRegistry::builtin().names()) {
    const Benchmark original = make_scenario(name, 9);
    std::stringstream first;
    write_benchmark(original, first);
    std::stringstream input(first.str());
    const Benchmark reread = read_benchmark(input, name);
    std::stringstream second;
    write_benchmark(reread, second);
    EXPECT_EQ(first.str(), second.str())
        << "round-trip not bit-identical for scenario family " << name;

    // And the reread benchmark is semantically the same workload.
    EXPECT_EQ(reread.name, original.name);
    ASSERT_EQ(reread.sinks.size(), original.sinks.size()) << name;
    EXPECT_EQ(reread.obstacle_rects.size(), original.obstacle_rects.size());
    EXPECT_DOUBLE_EQ(reread.tech.cap_limit, original.tech.cap_limit);
  }
}

TEST(CollectWorkloads, ResolvesFamiliesFilesAndDirectories) {
  const std::string dir = ::testing::TempDir() + "contango_workloads";
  std::filesystem::create_directories(dir);
  write_benchmark_file(make_scenario("ring", 2), dir + "/a_ring.bench");
  write_benchmark_file(make_scenario("uniform", 2), dir + "/b_uniform.bench");

  // Family + explicit file + whole directory, in one spec.
  const std::vector<Benchmark> suite = collect_workloads(
      "clustered, " + dir + "/a_ring.bench ," + dir, 4);
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "clustered_s4");
  EXPECT_EQ(suite[1].name, "ring_s2");
  EXPECT_EQ(suite[2].name, "ring_s2");      // a_ring.bench sorts first
  EXPECT_EQ(suite[3].name, "uniform_s2");
}

TEST(CollectWorkloads, FamilySinkCountSuffix) {
  const std::vector<Benchmark> suite = collect_workloads("ring:64,uniform", 1);
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite[0].sinks.size(), 64u);
  EXPECT_EQ(suite[0].name, "ring_s1_n64");
  EXPECT_EQ(suite[1].name, "uniform_s1");
}

TEST(CollectWorkloads, MalformedSinkCountSuffixIsAnErrorNotOneSink) {
  // stoi("1e3") == 1 would silently run the wrong workload size; the spec
  // parser must treat a partially-numeric suffix as an unknown element.
  EXPECT_THROW(collect_workloads("ring:1e3", 1), std::invalid_argument);
  EXPECT_THROW(collect_workloads("ring:64k", 1), std::invalid_argument);
  EXPECT_THROW(collect_workloads("ring:-5", 1), std::invalid_argument);
}

TEST(CollectWorkloads, MalformedOverrideErrorNamesTheSpecToken) {
  // When the prefix is a real family, the message must call out the bad
  // override itself — not claim the whole element is an unknown family.
  try {
    collect_workloads("uniform,ring:1e3", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ring:1e3"), std::string::npos) << what;
    EXPECT_NE(what.find("malformed sink-count override"), std::string::npos) << what;
    EXPECT_NE(what.find("'1e3'"), std::string::npos) << what;
  }
}

TEST(CollectWorkloads, EmptyDirectoryIsAnErrorNamingTheToken) {
  const std::string dir = ::testing::TempDir() + "contango_empty_dir";
  std::filesystem::create_directories(dir);
  try {
    collect_workloads("ring," + dir, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("no .bench or .cbench files"), std::string::npos)
        << what;
  }
}

TEST(CollectWorkloads, UnknownElementThrows) {
  try {
    collect_workloads("no_such_family_or_file", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_family_or_file"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ring"), std::string::npos)
        << "error should list the registered families";
  }
  EXPECT_TRUE(collect_workloads("", 1).empty());
}

}  // namespace
}  // namespace contango
