// Tests of the out-of-core `.cbench` binary benchmark format
// (netlist/binio.h, io/mmap.h): lossless text<->binary round-trips for
// every scenario family, flow bit-identity across formats and mmap
// backends, streaming-vs-materialized writer equality, and — most of
// the file — corruption hardening: every mutation of a valid image must
// raise BenchmarkParseError naming the offending header field or section,
// never crash or read out of bounds (this file runs under the ASan+UBSan
// CI job).

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cts/flow.h"
#include "cts/scenario.h"
#include "io/mmap.h"
#include "netlist/binio.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/rng.h"

namespace contango {
namespace {

std::string canonical_text(const Benchmark& bench) {
  std::ostringstream out;
  write_benchmark(bench, out);
  return out.str();
}

std::vector<unsigned char> cbench_bytes(const Benchmark& bench) {
  std::ostringstream out(std::ios::binary);
  write_cbench(bench, out);
  const std::string s = out.str();
  return std::vector<unsigned char>(s.begin(), s.end());
}

Benchmark parse_bytes(std::vector<unsigned char> bytes) {
  return MappedBenchmark::from_file(MappedFile::from_bytes(std::move(bytes)),
                                    "<test.cbench>")
      .to_benchmark();
}

/// Asserts that `bytes` fail validation with a message containing every
/// given substring.  The whole point of the format's checks: corrupt
/// bytes surface as a diagnosable error, not as UB.
void expect_rejected(std::vector<unsigned char> bytes,
                     const std::vector<std::string>& needles) {
  try {
    MappedBenchmark::from_file(MappedFile::from_bytes(std::move(bytes)),
                               "<corrupt.cbench>");
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<corrupt.cbench>"), std::string::npos) << what;
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << what;
    }
  }
}

void poke_u32(std::vector<unsigned char>& bytes, std::size_t off,
              std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
  }
}

void poke_u64(std::vector<unsigned char>& bytes, std::size_t off,
              std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(v >> (8 * i));
  }
}

/// Offset of the section-table entry for `id` (entries are stored in id
/// order: 40 bytes each after the 24-byte fixed header).
std::size_t table_entry(std::uint32_t id) { return 24 + (id - 1) * 40; }

// ---------------------------------------------------------------------------
// Round-trips and equivalence
// ---------------------------------------------------------------------------

TEST(CbenchRoundTrip, EveryScenarioFamilyIsByteIdentical) {
  for (const std::string& family : ScenarioRegistry::builtin().names()) {
    // Small sink override keeps the test fast; every family keeps its
    // characteristic obstacles/tech/corner structure regardless of count.
    const Benchmark original = make_scenario(family, 3, 257);
    const std::string text_before = canonical_text(original);
    const Benchmark back = parse_bytes(cbench_bytes(original));
    EXPECT_EQ(canonical_text(back), text_before)
        << "text -> binary -> text not byte-identical for family " << family;
    EXPECT_EQ(benchmark_content_hash(back).hex(),
              benchmark_content_hash(original).hex())
        << family;
  }
}

TEST(CbenchRoundTrip, TiLikeAndIspdLikeSurvive) {
  for (const Benchmark& original :
       {generate_ti_like(300), generate_ispd_like(ispd09_suite_params(3))}) {
    const Benchmark back = parse_bytes(cbench_bytes(original));
    EXPECT_EQ(canonical_text(back), canonical_text(original));
  }
}

TEST(CbenchRoundTrip, FileRoundTripThroughMmap) {
  const std::string path = ::testing::TempDir() + "binio_roundtrip.cbench";
  const Benchmark original = make_scenario("obstacle_dense", 7, 120);
  write_cbench_file(original, path);

  const MappedBenchmark mapped = MappedBenchmark::open(path);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_EQ(canonical_text(mapped.to_benchmark()), canonical_text(original));
  std::filesystem::remove(path);
}

TEST(CbenchRoundTrip, FlowIsBitIdenticalAcrossFormats) {
  const std::string dir = ::testing::TempDir() + "binio_flow";
  std::filesystem::create_directories(dir);
  const Benchmark original = generate_ispd_like(ispd09_suite_params(3));
  write_benchmark_file(original, dir + "/flow.bench");
  write_cbench_file(original, dir + "/flow.cbench");

  const Benchmark from_text = read_benchmark_file(dir + "/flow.bench");
  const Benchmark from_binary = read_benchmark_file(dir + "/flow.cbench");
  ASSERT_EQ(canonical_text(from_binary), canonical_text(from_text));

  const FlowResult text_run = run_contango(from_text);
  const FlowResult binary_run = run_contango(from_binary);
  // Exact double equality — the formats must be indistinguishable to the
  // flow, not merely close.
  EXPECT_EQ(binary_run.eval.nominal_skew, text_run.eval.nominal_skew);
  EXPECT_EQ(binary_run.eval.max_latency, text_run.eval.max_latency);
  EXPECT_EQ(binary_run.eval.clr, text_run.eval.clr);
  EXPECT_EQ(binary_run.eval.total_cap, text_run.eval.total_cap);
  EXPECT_EQ(binary_run.sim_runs, text_run.sim_runs);
  std::filesystem::remove_all(dir);
}

TEST(CbenchStreaming, MegaStreamedEqualsMaterializedBytes) {
  MegaGenParams params;
  params.num_sinks = 500;
  params.num_rows = 40;
  params.num_obstacles = 25;
  params.seed = 11;

  std::ostringstream streamed(std::ios::binary);
  generate_mega_cbench(params, streamed);
  std::ostringstream materialized(std::ios::binary);
  write_cbench(generate_mega(params), materialized);
  EXPECT_EQ(streamed.str(), materialized.str());
}

// ---------------------------------------------------------------------------
// Dispatch: read_benchmark_file / directories / workload specs
// ---------------------------------------------------------------------------

TEST(CbenchDispatch, MixedDirectoryAndSpecTokens) {
  const std::string dir = ::testing::TempDir() + "binio_mixed_dir";
  std::filesystem::create_directories(dir);
  write_benchmark_file(make_scenario("ring", 2, 64), dir + "/a_text.bench");
  write_cbench_file(make_scenario("uniform", 2, 64), dir + "/b_binary.cbench");

  // Directory pick-up: both extensions, sorted by filename.
  const std::vector<Benchmark> from_dir = collect_workloads(dir, 1);
  ASSERT_EQ(from_dir.size(), 2u);
  EXPECT_EQ(from_dir[0].name, "ring_s2_n64");
  EXPECT_EQ(from_dir[1].name, "uniform_s2_n64");

  // Explicit .cbench token next to a family token.
  std::vector<double> load_seconds;
  const std::vector<Benchmark> mixed = collect_workloads(
      "clustered:32," + dir + "/b_binary.cbench", 9, &load_seconds);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].name, "clustered_s9_n32");
  EXPECT_EQ(mixed[1].name, "uniform_s2_n64");
  ASSERT_EQ(load_seconds.size(), 2u);
  EXPECT_GE(load_seconds[0], 0.0);
  EXPECT_GE(load_seconds[1], 0.0);
  std::filesystem::remove_all(dir);
}

TEST(CbenchDispatch, MalformedSpecStillNamesTheToken) {
  try {
    collect_workloads("uniform,/no/such/dir/x.cbench", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/x.cbench"),
              std::string::npos)
        << e.what();
  }
}

TEST(CbenchDispatch, CorruptFileErrorNamesThePath) {
  const std::string path = ::testing::TempDir() + "binio_corrupt_disk.cbench";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a cbench file at all";
  }
  try {
    read_benchmark_file(path);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated header"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Writer misuse and payload validation
// ---------------------------------------------------------------------------

TEST(CbenchWriterApi, StageOrderIsEnforced) {
  std::ostringstream out(std::ios::binary);
  CbenchWriter writer(out);
  EXPECT_THROW(writer.write_wires({}), std::logic_error);  // corners first
  writer.write_corners({1.0});
  EXPECT_THROW(writer.write_corners({1.0}), std::logic_error);  // repeated
  EXPECT_THROW(writer.add_sink(0, 0, 1), std::logic_error);  // begin_sinks
  EXPECT_THROW(writer.finish(), std::logic_error);           // sections missing
}

TEST(CbenchWriterApi, RejectsInvalidPayloads) {
  std::ostringstream out(std::ios::binary);
  CbenchWriter writer(out);
  EXPECT_THROW(writer.write_corners({}), std::invalid_argument);
  writer.write_corners({1.0});
  writer.write_wires({WireType{"w0", 0.1, 0.2}});
  writer.write_inverters({InverterType{"inv", 1, 1, 1, 0.1}});
  writer.begin_sinks();
  writer.end_sinks();
  writer.write_obstacles({});
  writer.begin_names();
  // Non-token names are rejected exactly like the text writer rejects them.
  EXPECT_THROW(writer.add_name("two words"), std::invalid_argument);
  EXPECT_THROW(writer.add_name(""), std::invalid_argument);
  writer.add_name("bench");
  writer.add_name("w0");
  writer.add_name("inv");
  EXPECT_THROW(writer.add_name("extra"), std::logic_error);  // count exceeded
}

// ---------------------------------------------------------------------------
// Corruption hardening
// ---------------------------------------------------------------------------

class CbenchCorruption : public ::testing::Test {
 protected:
  void SetUp() override { image_ = cbench_bytes(make_scenario("ring", 1)); }

  std::vector<unsigned char> image_;
};

TEST_F(CbenchCorruption, ValidImageParses) {
  const Benchmark bench = parse_bytes(image_);
  EXPECT_EQ(bench.name, "ring_s1");
}

TEST_F(CbenchCorruption, EmptyAndTruncatedHeader) {
  expect_rejected({}, {"truncated header"});
  for (const std::size_t keep : {std::size_t{1}, std::size_t{23},
                                 std::size_t{100}, kCbenchHeaderBytes - 1}) {
    std::vector<unsigned char> bytes = image_;
    bytes.resize(keep);
    expect_rejected(std::move(bytes), {"truncated header"});
  }
}

TEST_F(CbenchCorruption, BadMagic) {
  std::vector<unsigned char> bytes = image_;
  bytes[0] ^= 0x01;
  expect_rejected(std::move(bytes), {"bad magic"});
}

TEST_F(CbenchCorruption, UnsupportedVersion) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, 8, 99);
  expect_rejected(std::move(bytes), {"unsupported format version 99"});
}

TEST_F(CbenchCorruption, BadSectionCount) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, 12, 6);
  expect_rejected(std::move(bytes), {"bad section count 6"});
}

TEST_F(CbenchCorruption, TruncatedPayloadTripsTheSizeField) {
  std::vector<unsigned char> bytes = image_;
  bytes.resize(bytes.size() - 16);
  expect_rejected(std::move(bytes), {"header file size"});
}

TEST_F(CbenchCorruption, AppendedGarbageTripsTheSizeField) {
  std::vector<unsigned char> bytes = image_;
  bytes.insert(bytes.end(), 32, 0xAB);
  expect_rejected(std::move(bytes), {"header file size"});
}

TEST_F(CbenchCorruption, UnknownSectionId) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, table_entry(kCbenchSinks), 42);
  expect_rejected(std::move(bytes), {"unknown section id 42"});
}

TEST_F(CbenchCorruption, DuplicateSectionId) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, table_entry(kCbenchSinks), kCbenchWires);
  expect_rejected(std::move(bytes), {"duplicate section WIRES"});
}

TEST_F(CbenchCorruption, NonZeroReservedField) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, table_entry(kCbenchObstacles) + 4, 7);
  expect_rejected(std::move(bytes),
                  {"section OBSTACLES", "reserved table field"});
}

TEST_F(CbenchCorruption, MisalignedSectionOffset) {
  std::vector<unsigned char> bytes = image_;
  const std::size_t entry = table_entry(kCbenchSinks);
  std::uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + entry + 8, 8);
  poke_u64(bytes, entry + 8, offset + 4);
  expect_rejected(std::move(bytes),
                  {"section SINKS", "not 8-byte aligned"});
}

TEST_F(CbenchCorruption, OffsetInsideHeader) {
  std::vector<unsigned char> bytes = image_;
  poke_u64(bytes, table_entry(kCbenchSinks) + 8, 16);
  expect_rejected(std::move(bytes), {"section SINKS", "overlaps the header"});
}

TEST_F(CbenchCorruption, OffsetPastEndOfFile) {
  std::vector<unsigned char> bytes = image_;
  const std::uint64_t past =
      (static_cast<std::uint64_t>(bytes.size()) + 8) & ~std::uint64_t{7};
  poke_u64(bytes, table_entry(kCbenchSinks) + 8, past);
  expect_rejected(std::move(bytes),
                  {"section SINKS", "extends past end of file"});
}

TEST_F(CbenchCorruption, HugeOffsetDoesNotOverflow) {
  // offset + byte_size would wrap a u64; the bounds check must be written
  // overflow-safe and still reject.
  std::vector<unsigned char> bytes = image_;
  poke_u64(bytes, table_entry(kCbenchSinks) + 8, ~std::uint64_t{7});
  expect_rejected(std::move(bytes),
                  {"section SINKS", "extends past end of file"});
}

TEST_F(CbenchCorruption, CountInconsistentWithByteSize) {
  std::vector<unsigned char> bytes = image_;
  const std::size_t entry = table_entry(kCbenchSinks);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + entry + 16, 8);
  poke_u64(bytes, entry + 16, count + 1);
  expect_rejected(std::move(bytes), {"section SINKS", "record count"});
}

TEST_F(CbenchCorruption, OverlappingSections) {
  // Point WIRES at the INVERTERS payload: bounds and strides stay
  // plausible, only the no-shared-bytes invariant breaks.
  std::vector<unsigned char> bytes = image_;
  std::uint64_t inv_offset = 0;
  std::memcpy(&inv_offset, bytes.data() + table_entry(kCbenchInverters) + 8, 8);
  poke_u64(bytes, table_entry(kCbenchWires) + 8, inv_offset);
  expect_rejected(std::move(bytes), {"overlap"});
}

TEST_F(CbenchCorruption, BitFlipInEverySectionTripsItsChecksum) {
  // Locate each section's payload from the (valid) table, flip one bit in
  // the middle of it, and demand the error names exactly that section.
  const MappedBenchmark mapped = MappedBenchmark::from_file(
      MappedFile::from_bytes(image_), "<locate.cbench>");
  for (const MappedBenchmark::SectionInfo& s : mapped.sections()) {
    if (s.byte_size == 0) continue;
    std::vector<unsigned char> bytes = image_;
    bytes[static_cast<std::size_t>(s.offset + s.byte_size / 2)] ^= 0x10;
    expect_rejected(std::move(bytes),
                    {std::string("section ") + cbench_section_name(s.id),
                     "checksum mismatch"});
  }
}

TEST_F(CbenchCorruption, NameLengthOverrunIsCaughtByChecksumOrWalk) {
  // Blow up the first name's length prefix *and* refresh the stored NAMES
  // checksum so the corruption reaches the name-table walk itself.
  const MappedBenchmark mapped = MappedBenchmark::from_file(
      MappedFile::from_bytes(image_), "<locate.cbench>");
  const auto& names = mapped.sections()[kCbenchNames - 1];
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, static_cast<std::size_t>(names.offset), 0x00FFFFFF);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a-64 offset basis
  for (std::uint64_t i = 0; i < names.byte_size; ++i) {
    h ^= bytes[static_cast<std::size_t>(names.offset + i)];
    h *= 1099511628211ull;
  }
  poke_u64(bytes, table_entry(kCbenchNames) + 32, h);
  expect_rejected(std::move(bytes), {"section NAMES"});
}

// ---------------------------------------------------------------------------
// Format v2: constraint sections
// ---------------------------------------------------------------------------

void poke_double(std::vector<unsigned char>& bytes, std::size_t off, double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, 8);
  poke_u64(bytes, off, b);
}

/// Recomputes the stored checksum of section `id` from the (possibly
/// corrupted) payload bytes, so a semantic corruption reaches the value
/// checks instead of tripping the checksum first.
void refresh_checksum(std::vector<unsigned char>& bytes, std::uint32_t id) {
  std::uint64_t offset = 0, byte_size = 0;
  std::memcpy(&offset, bytes.data() + table_entry(id) + 8, 8);
  std::memcpy(&byte_size, bytes.data() + table_entry(id) + 24, 8);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a-64 offset basis
  for (std::uint64_t i = 0; i < byte_size; ++i) {
    h ^= bytes[static_cast<std::size_t>(offset + i)];
    h *= 1099511628211ull;
  }
  poke_u64(bytes, table_entry(id) + 32, h);
}

/// A benchmark exercising every v2 section: two named domains, a full
/// per-sink domain assignment, a couple of bounded windows, and one
/// inter-domain bound.
Benchmark constrained_fixture() {
  Benchmark bench = make_scenario("ring", 1, 64);
  TimingConstraints& cons = bench.constraints;
  cons.domain_names = {"core", "io"};
  cons.sink_domains.assign(bench.sinks.size(), 0);
  for (std::size_t i = 0; i < cons.sink_domains.size(); i += 2) {
    cons.sink_domains[i] = 1;
  }
  cons.sink_windows.assign(bench.sinks.size(), ArrivalWindow{});
  cons.sink_windows[0] = ArrivalWindow{0.0, 25.0};
  cons.sink_windows[3].hi = 40.0;  // one-sided: upper bound only
  cons.domain_bounds.push_back(DomainBound{0, 1, 30.0});
  return bench;
}

TEST(CbenchVersioning, TrivialConstraintsStillEmitVersion1) {
  const MappedBenchmark mapped = MappedBenchmark::from_file(
      MappedFile::from_bytes(cbench_bytes(make_scenario("ring", 1, 64))),
      "<v1.cbench>");
  EXPECT_EQ(mapped.version(), kCbenchVersion);
  EXPECT_FALSE(mapped.has_constraint_sections());
  EXPECT_TRUE(mapped.read_constraints().trivial());
}

TEST(CbenchVersioning, ConstrainedBenchmarkEmitsVersion2AndRoundTrips) {
  const Benchmark original = constrained_fixture();
  std::vector<unsigned char> bytes = cbench_bytes(original);
  const MappedBenchmark mapped = MappedBenchmark::from_file(
      MappedFile::from_bytes(std::move(bytes)), "<v2.cbench>");
  EXPECT_EQ(mapped.version(), kCbenchVersion2);
  ASSERT_TRUE(mapped.has_constraint_sections());
  EXPECT_EQ(mapped.num_domain_names(), 2u);
  EXPECT_EQ(mapped.domain_name(0), "core");
  EXPECT_EQ(mapped.domain_name(1), "io");

  const Benchmark back = mapped.to_benchmark();
  EXPECT_EQ(back.constraints, original.constraints);
  EXPECT_EQ(canonical_text(back), canonical_text(original));
  EXPECT_EQ(benchmark_content_hash(back).hex(),
            benchmark_content_hash(original).hex());
}

TEST(CbenchVersioning, TextAndBinaryConstraintsAgree) {
  // .bench text directives and .cbench v2 sections decode to the same
  // TimingConstraints (the contango-pack verify invariant).
  const Benchmark original = constrained_fixture();
  std::istringstream text(canonical_text(original));
  const Benchmark from_text = read_benchmark(text, "<text.bench>");
  const Benchmark from_binary = parse_bytes(cbench_bytes(original));
  EXPECT_EQ(from_text.constraints, from_binary.constraints);
}

TEST(CbenchVersioning, WindowsOnlyConstraintsRoundTripDespiteEmptySections) {
  // The usefulskew shape: sink windows only, with SINK_DOMAINS,
  // DOMAIN_BOUNDS and DOMAIN_NAMES all zero-byte sections sharing their
  // offset with the non-empty NAMES section that follows.  Regression:
  // the overlap validator used to sort offset-tied sections arbitrarily
  // and reject every such file with a bogus "sections NAMES and
  // DOMAIN_BOUNDS overlap".
  Benchmark original = make_scenario("ring", 1, 64);
  original.constraints.sink_windows.assign(original.sinks.size(),
                                           ArrivalWindow{});
  original.constraints.sink_windows[2] = ArrivalWindow{1.0, 50.0};
  original.constraints.sink_windows[5].hi = 80.0;  // one-sided
  ASSERT_FALSE(original.constraints.trivial());

  std::vector<unsigned char> bytes = cbench_bytes(original);
  const MappedBenchmark mapped = MappedBenchmark::from_file(
      MappedFile::from_bytes(std::move(bytes)), "<windows-only.cbench>");
  EXPECT_EQ(mapped.version(), kCbenchVersion2);
  ASSERT_TRUE(mapped.has_constraint_sections());
  EXPECT_EQ(mapped.num_domain_names(), 0u);

  const Benchmark back = parse_bytes(cbench_bytes(original));
  EXPECT_EQ(back.constraints, original.constraints);
  EXPECT_EQ(benchmark_content_hash(back).hex(),
            benchmark_content_hash(original).hex());
}

class CbenchCorruptionV2 : public ::testing::Test {
 protected:
  void SetUp() override { image_ = cbench_bytes(constrained_fixture()); }

  /// SectionInfo of `id` in the (valid) fixture image.
  MappedBenchmark::SectionInfo locate(std::uint32_t id) const {
    const MappedBenchmark mapped = MappedBenchmark::from_file(
        MappedFile::from_bytes(image_), "<locate.cbench>");
    return mapped.sections()[id - 1];
  }

  std::vector<unsigned char> image_;
};

TEST_F(CbenchCorruptionV2, BitFlipInEveryConstraintSectionNamesIt) {
  for (const std::uint32_t id : {kCbenchSinkDomains, kCbenchSinkWindows,
                                 kCbenchDomainBounds, kCbenchDomainNames}) {
    const MappedBenchmark::SectionInfo s = locate(id);
    ASSERT_GT(s.byte_size, 0u) << cbench_section_name(id);
    std::vector<unsigned char> bytes = image_;
    bytes[static_cast<std::size_t>(s.offset + s.byte_size / 2)] ^= 0x10;
    expect_rejected(std::move(bytes),
                    {std::string("section ") + cbench_section_name(id),
                     "checksum mismatch"});
  }
}

TEST_F(CbenchCorruptionV2, OutOfRangeDomainIndexNamesTheSection) {
  const MappedBenchmark::SectionInfo s = locate(kCbenchSinkDomains);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset), 9.0);
  refresh_checksum(bytes, kCbenchSinkDomains);
  expect_rejected(std::move(bytes),
                  {"section SINK_DOMAINS", "domain index", "is not an integer"});
}

TEST_F(CbenchCorruptionV2, NonIntegralDomainIndexNamesTheSection) {
  const MappedBenchmark::SectionInfo s = locate(kCbenchSinkDomains);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset), 0.5);
  refresh_checksum(bytes, kCbenchSinkDomains);
  expect_rejected(std::move(bytes),
                  {"section SINK_DOMAINS", "is not an integer"});
}

TEST_F(CbenchCorruptionV2, InvertedWindowNamesTheSection) {
  // Window 0 is [0, 25] in the fixture; poking lo above hi makes it empty.
  const MappedBenchmark::SectionInfo s = locate(kCbenchSinkWindows);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset), 50.0);
  refresh_checksum(bytes, kCbenchSinkWindows);
  expect_rejected(std::move(bytes),
                  {"section SINK_WINDOWS", "window 0 is malformed"});
}

TEST_F(CbenchCorruptionV2, NegativeDomainBoundNamesTheSection) {
  const MappedBenchmark::SectionInfo s = locate(kCbenchDomainBounds);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset) + 16, -5.0);
  refresh_checksum(bytes, kCbenchDomainBounds);
  expect_rejected(std::move(bytes),
                  {"section DOMAIN_BOUNDS", "finite and non-negative"});
}

TEST_F(CbenchCorruptionV2, DomainNameLengthOverrunNamesTheSection) {
  const MappedBenchmark::SectionInfo s = locate(kCbenchDomainNames);
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, static_cast<std::size_t>(s.offset), 0x00FFFFFF);
  refresh_checksum(bytes, kCbenchDomainNames);
  expect_rejected(std::move(bytes), {"section DOMAIN_NAMES"});
}

TEST_F(CbenchCorruptionV2, RandomSingleBitFlipsNeverCrash) {
  // v2 twin of the v1 catch-all fuzz below: any single-bit corruption of a
  // constrained image either still parses or raises BenchmarkParseError.
  Rng rng(20260808);
  int rejected = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<unsigned char> bytes = image_;
    const std::size_t bit = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<long>(bytes.size()) * 8 - 1));
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    try {
      parse_bytes(std::move(bytes));
    } catch (const BenchmarkParseError&) {
      ++rejected;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, kTrials * 9 / 10);
}

TEST_F(CbenchCorruption, RandomSingleBitFlipsNeverCrash) {
  // The catch-all: any single-bit corruption either still parses (flips
  // confined to alignment padding are undetectable and harmless) or
  // raises BenchmarkParseError.  Under ASan/UBSan this doubles as a
  // memory-safety fuzz of the whole validation path.
  Rng rng(20260812);
  int rejected = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<unsigned char> bytes = image_;
    const std::size_t bit = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<long>(bytes.size()) * 8 - 1));
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    try {
      parse_bytes(std::move(bytes));
    } catch (const BenchmarkParseError&) {
      ++rejected;
    } catch (const std::invalid_argument&) {
      // Structurally valid bytes describing an inconsistent benchmark
      // (e.g. a sink cap flipped negative) fail to_benchmark's validate.
      ++rejected;
    }
  }
  // Nearly everything in the image is covered by a checksum or header
  // validation; only padding flips can slip through silently.
  EXPECT_GE(rejected, kTrials * 9 / 10);
}

}  // namespace
}  // namespace contango
