// Tests of the `.cbench` binary benchmark format (netlist/binio.h):
// lossless text<->binary round-trips for every scenario family, flow
// bit-identity across formats, pinned writer bytes, electrical-value
// validation through both readers, and — most of the file — corruption
// hardening: every mutation of a valid image must raise
// BenchmarkParseError naming the offending header field or section, never
// crash or read out of bounds (this file runs under the ASan+UBSan CI
// job).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cts/flow.h"
#include "cts/scenario.h"
#include "netlist/binio.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/hash.h"
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

Benchmark parse_bytes(const std::vector<unsigned char>& bytes) {
  return read_cbench(bytes.data(), bytes.size(), "<test.cbench>");
}

/// The validated section table of `bytes`.
CbenchTable table_of(const std::vector<unsigned char>& bytes) {
  return read_cbench_table(bytes.data(), bytes.size(), "<locate.cbench>");
}

/// Asserts that `bytes` fail validation with a message containing every
/// given substring.  The whole point of the format's checks: corrupt
/// bytes surface as a diagnosable error, not as UB.
void expect_rejected(const std::vector<unsigned char>& bytes,
                     const std::vector<std::string>& needles) {
  try {
    read_cbench(bytes.data(), bytes.size(), "<corrupt.cbench>");
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

TEST(CbenchRoundTrip, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "binio_roundtrip.cbench";
  const Benchmark original = make_scenario("obstacle_dense", 7, 120);
  write_cbench_file(original, path);

  EXPECT_EQ(read_file_bytes(path), cbench_bytes(original));
  EXPECT_EQ(canonical_text(read_cbench_file(path)), canonical_text(original));
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

TEST(CbenchBytes, WriterOutputIsPinned) {
  // FNV-1a-64 of the exact bytes write_cbench emits for a v1 file, a v2
  // file and a small mega instance.  A change that moves one byte (section
  // order, padding, table layout, version choice, or the mega generator's
  // output) fails here; re-pin only for a deliberate format or generator
  // change, and bump the format version for the former.
  MegaGenParams mega;
  mega.num_sinks = 500;
  mega.num_rows = 40;
  mega.num_obstacles = 25;
  mega.seed = 11;
  const struct {
    const char* label;
    Benchmark bench;
    std::uint32_t version;
    std::uint64_t fnv;
  } cases[] = {
      {"ring_s1", make_scenario("ring", 1), kCbenchVersion,
       0xde86b4516080996aull},
      {"multidomain_s1", make_scenario("multidomain", 1), kCbenchVersion2,
       0x92dbcab7a2a52b08ull},
      {"mega 500/40/25 seed 11", generate_mega(mega), kCbenchVersion,
       0x1f9b2f9718fdf5caull},
  };
  for (const auto& c : cases) {
    const std::vector<unsigned char> bytes = cbench_bytes(c.bench);
    ASSERT_GT(bytes.size(), 8u) << c.label;
    EXPECT_EQ(bytes[8], c.version) << c.label;
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), c.fnv)
        << c.label << ": 0x" << std::hex << fnv1a64(bytes.data(), bytes.size());
  }
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

TEST(CbenchWriterApi, RejectsInvalidPayloads) {
  // Payloads the text writer also rejects throw before any byte is written.
  const Benchmark valid = make_scenario("ring", 1, 16);
  auto expect_invalid = [](const Benchmark& bench, const std::string& what) {
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(write_cbench(bench, out), std::invalid_argument) << what;
    EXPECT_TRUE(out.str().empty()) << what;
  };
  Benchmark no_corners = valid;
  no_corners.tech.corners.clear();
  expect_invalid(no_corners, "empty corners");
  for (const std::string& bad : {std::string("two words"), std::string()}) {
    Benchmark named = valid;
    named.name = bad;
    expect_invalid(named, "benchmark name '" + bad + "'");
    Benchmark sink = valid;
    sink.sinks[3].name = bad;
    expect_invalid(sink, "sink name '" + bad + "'");
    Benchmark wire = valid;
    wire.tech.wires[0].name = bad;
    expect_invalid(wire, "wire name '" + bad + "'");
  }
}

// ---------------------------------------------------------------------------
// Electrical values: both readers reject what validate() rejects
// ---------------------------------------------------------------------------

/// One out-of-range electrical value.  `set` writes it into the benchmark
/// and returns the field as the rejection names it.
struct BadElectrical {
  const char* label;
  double value;
  const char* printed;  ///< the value as the rejection prints it
  std::string (*set)(Benchmark&, double);
};

void PrintTo(const BadElectrical& c, std::ostream* os) { *os << c.label; }

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const BadElectrical kBadElectrical[] = {
    {"SinkCapNan", kNan, "nan",
     [](Benchmark& b, double v) {
       b.sinks[5].cap = v;
       return "sink '" + b.sinks[5].name + "' cap";
     }},
    {"SinkCapNegative", -1.0, "-1",
     [](Benchmark& b, double v) {
       b.sinks[5].cap = v;
       return "sink '" + b.sinks[5].name + "' cap";
     }},
    {"WireRNan", kNan, "nan",
     [](Benchmark& b, double v) {
       b.tech.wires[0].r_per_um = v;
       return "wire '" + b.tech.wires[0].name + "' r_per_um";
     }},
    {"WireRNegative", -0.5, "-0.5",
     [](Benchmark& b, double v) {
       b.tech.wires[0].r_per_um = v;
       return "wire '" + b.tech.wires[0].name + "' r_per_um";
     }},
    {"WireRZero", 0.0, "0",
     [](Benchmark& b, double v) {
       b.tech.wires[0].r_per_um = v;
       return "wire '" + b.tech.wires[0].name + "' r_per_um";
     }},
    {"WireCNegative", -0.25, "-0.25",
     [](Benchmark& b, double v) {
       b.tech.wires.back().c_per_um = v;
       return "wire '" + b.tech.wires.back().name + "' c_per_um";
     }},
    {"InverterInputCapInf", kInf, "inf",
     [](Benchmark& b, double v) {
       b.tech.inverters[0].input_cap = v;
       return "inverter '" + b.tech.inverters[0].name + "' input_cap";
     }},
    {"InverterOutputCapNegative", -2.0, "-2",
     [](Benchmark& b, double v) {
       b.tech.inverters[0].output_cap = v;
       return "inverter '" + b.tech.inverters[0].name + "' output_cap";
     }},
    {"InverterOutputResNegative", -0.44, "-0.44",
     [](Benchmark& b, double v) {
       b.tech.inverters[0].output_res = v;
       return "inverter '" + b.tech.inverters[0].name + "' output_res";
     }},
    {"InverterIntrinsicDelayNan", kNan, "nan",
     [](Benchmark& b, double v) {
       b.tech.inverters.back().intrinsic_delay = v;
       return "inverter '" + b.tech.inverters.back().name +
              "' intrinsic_delay";
     }},
    {"CornerZero", 0.0, "0",
     [](Benchmark& b, double v) {
       b.tech.corners.back() = v;
       return "corner " + std::to_string(b.tech.corners.size() - 1);
     }},
    {"SourceResNan", kNan, "nan",
     [](Benchmark& b, double v) {
       b.source_res = v;
       return std::string("source_res");
     }},
    {"SlewLimitZero", 0.0, "0",
     [](Benchmark& b, double v) {
       b.tech.slew_limit = v;
       return std::string("slew_limit");
     }},
    {"SlewLimitInf", kInf, "inf",
     [](Benchmark& b, double v) {
       b.tech.slew_limit = v;
       return std::string("slew_limit");
     }},
    {"CapLimitNan", kNan, "nan",
     [](Benchmark& b, double v) {
       b.tech.cap_limit = v;
       return std::string("cap_limit");
     }},
    {"SupplyAlphaInf", kInf, "inf",
     [](Benchmark& b, double v) {
       b.tech.supply_alpha = v;
       return std::string("supply_alpha");
     }},
    {"RiseFallRatioZero", 0.0, "0",
     [](Benchmark& b, double v) {
       b.tech.rise_fall_ratio = v;
       return std::string("rise_fall_ratio");
     }},
};

/// A valid stand-in for a bad value: exactly representable, and neither
/// printed nor encoded anywhere else in `ring_s1`, so a valid image can be
/// patched at the one place it appears.
constexpr double kSentinel = 1234.5625;

/// `text` with the one printed kSentinel replaced by `value`, printed the
/// way write_benchmark prints a double.
std::string patch_text(std::string text, double value) {
  std::ostringstream sentinel, bad;
  sentinel.precision(17);
  bad.precision(17);
  sentinel << kSentinel;
  bad << value;
  const std::size_t at = text.find(sentinel.str());
  if (at == std::string::npos) {
    ADD_FAILURE() << "sentinel " << sentinel.str() << " not in the text";
    return text;
  }
  EXPECT_EQ(text.find(sentinel.str(), at + 1), std::string::npos);
  return text.replace(at, sentinel.str().size(), bad.str());
}

/// `bytes` with the one encoded kSentinel replaced by `value`, and the
/// checksum of the section holding it resealed.
std::vector<unsigned char> patch_cbench(std::vector<unsigned char> bytes,
                                        double value) {
  std::vector<std::size_t> hits;
  for (std::size_t off = 0; off + 8 <= bytes.size(); ++off) {
    if (std::memcmp(bytes.data() + off, &kSentinel, 8) == 0) hits.push_back(off);
  }
  EXPECT_EQ(hits.size(), 1u);
  if (hits.empty()) return bytes;
  for (const CbenchSection& s : table_of(bytes).sections) {
    if (hits[0] >= s.offset && hits[0] < s.offset + s.byte_size) {
      poke_double(bytes, hits[0], value);
      refresh_checksum(bytes, s.id);
    }
  }
  return bytes;
}

class ElectricalValue : public ::testing::TestWithParam<BadElectrical> {
 protected:
  /// The rejection `validate()` must raise for the parameter's value.
  static std::string expected_message(const std::string& field) {
    return "benchmark 'ring_s1': " + field + " is " + GetParam().printed +
           " (must be finite and ";
  }

  /// A writer on a benchmark carrying the bad value throws naming the field
  /// and the value, and writes nothing: the stream stays empty, a missing
  /// path is not created and an existing file keeps its bytes.
  static void expect_writer_rejects(
      void (*write)(const Benchmark&, std::ostream&),
      void (*write_file)(const Benchmark&, const std::string&),
      const std::string& extension) {
    Benchmark bench = make_scenario("ring", 1);
    const std::string expected = expected_message(GetParam().set(bench, GetParam().value));
    const auto expect_named = [&](const std::function<void()>& run) {
      try {
        run();
        ADD_FAILURE() << "writer accepted " << expected;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
            << e.what();
      }
    };
    std::ostringstream out(std::ios::binary);
    expect_named([&] { write(bench, out); });
    EXPECT_TRUE(out.str().empty());

    const std::string dir = ::testing::TempDir() + "binio_bad_write";
    std::filesystem::create_directories(dir);
    const std::string missing = dir + "/missing" + extension;
    std::filesystem::remove(missing);
    expect_named([&] { write_file(bench, missing); });
    EXPECT_FALSE(std::filesystem::exists(missing));
    const std::string existing = dir + "/existing" + extension;
    std::ofstream(existing) << "keep";
    expect_named([&] { write_file(bench, existing); });
    EXPECT_EQ(read_file_bytes(existing),
              (std::vector<unsigned char>{'k', 'e', 'e', 'p'}));
    std::filesystem::remove_all(dir);
  }
};

TEST_P(ElectricalValue, BothReadersRejectItNamingFieldAndValue) {
  const BadElectrical& c = GetParam();
  Benchmark bench = make_scenario("ring", 1);
  const std::string expected = expected_message(c.set(bench, kSentinel));

  try {
    parse_bytes(patch_cbench(cbench_bytes(bench), c.value));
    FAIL() << ".cbench reader accepted " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }

  std::istringstream text(patch_text(canonical_text(bench), c.value));
  if (std::isfinite(c.value)) {
    try {
      read_benchmark(text, "<bad.bench>");
      FAIL() << "text reader accepted " << expected;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  } else {
    // The text format has no token for NaN or infinity, so the parser
    // stops at the line carrying it.
    EXPECT_THROW(read_benchmark(text, "<bad.bench>"), BenchmarkParseError);
  }
}

TEST_P(ElectricalValue, TextWriterRejectsItWritingNothing) {
  expect_writer_rejects(write_benchmark, write_benchmark_file, ".bench");
}

TEST_P(ElectricalValue, CbenchWriterRejectsItWritingNothing) {
  expect_writer_rejects(write_cbench, write_cbench_file, ".cbench");
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ElectricalValue, ::testing::ValuesIn(kBadElectrical),
    [](const ::testing::TestParamInfo<BadElectrical>& info) {
      return std::string(info.param.label);
    });

TEST(ElectricalValueBounds, ZeroCapLimitMeansNoLimitInBothReaders) {
  Benchmark bench = make_scenario("ring", 1);
  bench.tech.cap_limit = 0.0;
  EXPECT_EQ(parse_bytes(cbench_bytes(bench)).tech.cap_limit, 0.0);
  std::istringstream text(canonical_text(bench));
  EXPECT_EQ(read_benchmark(text, "<zero.bench>").tech.cap_limit, 0.0);
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
    expect_rejected(bytes, {"truncated header"});
  }
}

TEST_F(CbenchCorruption, BadMagic) {
  std::vector<unsigned char> bytes = image_;
  bytes[0] ^= 0x01;
  expect_rejected(bytes, {"bad magic"});
}

TEST_F(CbenchCorruption, UnsupportedVersion) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, 8, 99);
  expect_rejected(bytes, {"unsupported format version 99"});
}

TEST_F(CbenchCorruption, BadSectionCount) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, 12, 6);
  expect_rejected(bytes, {"bad section count 6"});
}

TEST_F(CbenchCorruption, TruncatedPayloadTripsTheSizeField) {
  std::vector<unsigned char> bytes = image_;
  bytes.resize(bytes.size() - 16);
  expect_rejected(bytes, {"header file size"});
}

TEST_F(CbenchCorruption, AppendedGarbageTripsTheSizeField) {
  std::vector<unsigned char> bytes = image_;
  bytes.insert(bytes.end(), 32, 0xAB);
  expect_rejected(bytes, {"header file size"});
}

TEST_F(CbenchCorruption, UnknownSectionId) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, table_entry(kCbenchSinks), 42);
  expect_rejected(bytes, {"unknown section id 42"});
}

TEST_F(CbenchCorruption, DuplicateSectionId) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, table_entry(kCbenchSinks), kCbenchWires);
  expect_rejected(bytes, {"duplicate section WIRES"});
}

TEST_F(CbenchCorruption, NonZeroReservedField) {
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, table_entry(kCbenchObstacles) + 4, 7);
  expect_rejected(bytes,
                  {"section OBSTACLES", "reserved table field"});
}

TEST_F(CbenchCorruption, MisalignedSectionOffset) {
  std::vector<unsigned char> bytes = image_;
  const std::size_t entry = table_entry(kCbenchSinks);
  std::uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + entry + 8, 8);
  poke_u64(bytes, entry + 8, offset + 4);
  expect_rejected(bytes,
                  {"section SINKS", "not 8-byte aligned"});
}

TEST_F(CbenchCorruption, OffsetInsideHeader) {
  std::vector<unsigned char> bytes = image_;
  poke_u64(bytes, table_entry(kCbenchSinks) + 8, 16);
  expect_rejected(bytes, {"section SINKS", "overlaps the header"});
}

TEST_F(CbenchCorruption, OffsetPastEndOfFile) {
  std::vector<unsigned char> bytes = image_;
  const std::uint64_t past =
      (static_cast<std::uint64_t>(bytes.size()) + 8) & ~std::uint64_t{7};
  poke_u64(bytes, table_entry(kCbenchSinks) + 8, past);
  expect_rejected(bytes,
                  {"section SINKS", "extends past end of file"});
}

TEST_F(CbenchCorruption, HugeOffsetDoesNotOverflow) {
  // offset + byte_size would wrap a u64; the bounds check must be written
  // overflow-safe and still reject.
  std::vector<unsigned char> bytes = image_;
  poke_u64(bytes, table_entry(kCbenchSinks) + 8, ~std::uint64_t{7});
  expect_rejected(bytes,
                  {"section SINKS", "extends past end of file"});
}

TEST_F(CbenchCorruption, CountInconsistentWithByteSize) {
  std::vector<unsigned char> bytes = image_;
  const std::size_t entry = table_entry(kCbenchSinks);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + entry + 16, 8);
  poke_u64(bytes, entry + 16, count + 1);
  expect_rejected(bytes, {"section SINKS", "record count"});
}

TEST_F(CbenchCorruption, OverlappingSections) {
  // Point WIRES at the INVERTERS payload: bounds and strides stay
  // plausible, only the no-shared-bytes invariant breaks.
  std::vector<unsigned char> bytes = image_;
  std::uint64_t inv_offset = 0;
  std::memcpy(&inv_offset, bytes.data() + table_entry(kCbenchInverters) + 8, 8);
  poke_u64(bytes, table_entry(kCbenchWires) + 8, inv_offset);
  expect_rejected(bytes, {"overlap"});
}

TEST_F(CbenchCorruption, BitFlipInEverySectionTripsItsChecksum) {
  // Locate each section's payload from the (valid) table, flip one bit in
  // the middle of it, and demand the error names exactly that section.
  for (const CbenchSection& s : table_of(image_).sections) {
    if (s.byte_size == 0) continue;
    std::vector<unsigned char> bytes = image_;
    bytes[static_cast<std::size_t>(s.offset + s.byte_size / 2)] ^= 0x10;
    expect_rejected(bytes,
                    {std::string("section ") + cbench_section_name(s.id),
                     "checksum mismatch"});
  }
}

TEST_F(CbenchCorruption, NameLengthOverrunIsCaughtByChecksumOrWalk) {
  // Blow up the first name's length prefix *and* refresh the stored NAMES
  // checksum so the corruption reaches the name-table walk itself.
  const CbenchSection names = table_of(image_).section(kCbenchNames);
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, static_cast<std::size_t>(names.offset), 0x00FFFFFF);
  refresh_checksum(bytes, kCbenchNames);
  expect_rejected(bytes, {"section NAMES"});
}

// ---------------------------------------------------------------------------
// Format v2: constraint sections
// ---------------------------------------------------------------------------

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
  const std::vector<unsigned char> bytes =
      cbench_bytes(make_scenario("ring", 1, 64));
  const CbenchTable table = table_of(bytes);
  EXPECT_EQ(table.version, kCbenchVersion);
  EXPECT_EQ(table.sections.size(), kCbenchSectionCount);
  EXPECT_TRUE(parse_bytes(bytes).constraints.trivial());
}

TEST(CbenchVersioning, ConstrainedBenchmarkEmitsVersion2AndRoundTrips) {
  const Benchmark original = constrained_fixture();
  const std::vector<unsigned char> bytes = cbench_bytes(original);
  const CbenchTable table = table_of(bytes);
  EXPECT_EQ(table.version, kCbenchVersion2);
  ASSERT_EQ(table.sections.size(), kCbenchSectionCountV2);
  EXPECT_EQ(table.section(kCbenchDomainNames).count, 2u);

  const Benchmark back = parse_bytes(bytes);
  ASSERT_EQ(back.constraints.domain_names.size(), 2u);
  EXPECT_EQ(back.constraints.domain_names[0], "core");
  EXPECT_EQ(back.constraints.domain_names[1], "io");
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

  const std::vector<unsigned char> bytes = cbench_bytes(original);
  const CbenchTable table = table_of(bytes);
  EXPECT_EQ(table.version, kCbenchVersion2);
  ASSERT_EQ(table.sections.size(), kCbenchSectionCountV2);
  EXPECT_EQ(table.section(kCbenchDomainNames).count, 0u);

  const Benchmark back = parse_bytes(bytes);
  EXPECT_TRUE(back.constraints.domain_names.empty());
  EXPECT_EQ(back.constraints, original.constraints);
  EXPECT_EQ(benchmark_content_hash(back).hex(),
            benchmark_content_hash(original).hex());
}

class CbenchCorruptionV2 : public ::testing::Test {
 protected:
  void SetUp() override { image_ = cbench_bytes(constrained_fixture()); }

  /// Table entry of section `id` in the (valid) fixture image.
  CbenchSection locate(std::uint32_t id) const {
    return table_of(image_).section(id);
  }

  std::vector<unsigned char> image_;
};

TEST_F(CbenchCorruptionV2, BitFlipInEveryConstraintSectionNamesIt) {
  for (const std::uint32_t id : {kCbenchSinkDomains, kCbenchSinkWindows,
                                 kCbenchDomainBounds, kCbenchDomainNames}) {
    const CbenchSection s = locate(id);
    ASSERT_GT(s.byte_size, 0u) << cbench_section_name(id);
    std::vector<unsigned char> bytes = image_;
    bytes[static_cast<std::size_t>(s.offset + s.byte_size / 2)] ^= 0x10;
    expect_rejected(bytes,
                    {std::string("section ") + cbench_section_name(id),
                     "checksum mismatch"});
  }
}

TEST_F(CbenchCorruptionV2, OutOfRangeDomainIndexNamesTheSection) {
  const CbenchSection s = locate(kCbenchSinkDomains);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset), 9.0);
  refresh_checksum(bytes, kCbenchSinkDomains);
  expect_rejected(bytes,
                  {"section SINK_DOMAINS", "domain index", "is not an integer"});
}

TEST_F(CbenchCorruptionV2, NonIntegralDomainIndexNamesTheSection) {
  const CbenchSection s = locate(kCbenchSinkDomains);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset), 0.5);
  refresh_checksum(bytes, kCbenchSinkDomains);
  expect_rejected(bytes,
                  {"section SINK_DOMAINS", "is not an integer"});
}

TEST_F(CbenchCorruptionV2, InvertedWindowNamesTheSection) {
  // Window 0 is [0, 25] in the fixture; poking lo above hi makes it empty.
  const CbenchSection s = locate(kCbenchSinkWindows);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset), 50.0);
  refresh_checksum(bytes, kCbenchSinkWindows);
  expect_rejected(bytes,
                  {"section SINK_WINDOWS", "window 0 is malformed"});
}

TEST_F(CbenchCorruptionV2, NegativeDomainBoundNamesTheSection) {
  const CbenchSection s = locate(kCbenchDomainBounds);
  std::vector<unsigned char> bytes = image_;
  poke_double(bytes, static_cast<std::size_t>(s.offset) + 16, -5.0);
  refresh_checksum(bytes, kCbenchDomainBounds);
  expect_rejected(bytes,
                  {"section DOMAIN_BOUNDS", "finite and non-negative"});
}

TEST_F(CbenchCorruptionV2, DomainNameLengthOverrunNamesTheSection) {
  const CbenchSection s = locate(kCbenchDomainNames);
  std::vector<unsigned char> bytes = image_;
  poke_u32(bytes, static_cast<std::size_t>(s.offset), 0x00FFFFFF);
  refresh_checksum(bytes, kCbenchDomainNames);
  expect_rejected(bytes, {"section DOMAIN_NAMES"});
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
      parse_bytes(bytes);
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
      parse_bytes(bytes);
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
