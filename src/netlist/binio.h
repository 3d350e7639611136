#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "geom/spatial.h"
#include "io/mmap.h"
#include "netlist/benchmark.h"

namespace contango {

/// \file binio.h
/// \brief On-disk benchmark I/O: the `.cbench` binary format (versions 1-2).
///
/// `.cbench` is the out-of-core companion of the text `.bench` format
/// (io.h): the same information content, stored as fixed-stride
/// little-endian records holding exact IEEE-754 double bits so a 1M-sink
/// instance loads as an mmap + header validation instead of a
/// million-line text parse.  Conversion is lossless in both directions —
/// text -> binary -> text reproduces the exporter's bytes exactly, and the
/// binary file stores the same doubles the text format prints with
/// round-trip precision — so `benchmark_content_hash` (and therefore the
/// service result cache) cannot tell the two encodings apart.
///
/// File layout (all integers and doubles little-endian; every section
/// offset 8-byte aligned, gaps zero-padded):
///
///     offset  size  field
///     0       8     magic "CONTANGO"
///     8       4     u32 format version (1 or 2)
///     12      4     u32 section count (7 in version 1, 11 in version 2)
///     16      8     u64 total file size in bytes
///     24      N*40  section table, one 40-byte entry per section id 1..N:
///                     u32 id, u32 reserved (0), u64 byte offset,
///                     u64 record count, u64 byte size, u64 FNV-1a-64
///                     checksum of the section bytes
///     24+N*40 ...   section payloads
///
/// Sections (id, record layout):
///
///     1 SCALARS       11 doubles: die.xlo ylo xhi yhi, source.x y,
///                     source_res, slew_limit, cap_limit, supply_alpha,
///                     rise_fall_ratio
///     2 CORNERS       count doubles (supply corners; count >= 1)
///     3 WIRES         count records of 2 doubles: r_per_um, c_per_um
///     4 INVERTERS     count records of 4 doubles: input_cap, output_cap,
///                     output_res, intrinsic_delay
///     5 SINKS         count records of 3 doubles: x, y, cap
///     6 OBSTACLES     count records of 4 doubles: xlo, ylo, xhi, yhi
///     7 NAMES         (1 + wires + inverters + sinks) strings, each a u32
///                     byte length followed by the bytes, in the order:
///                     benchmark name, wire names, inverter names, sink names
///
/// Version-2 files add the timing-constraint sections (constraints.h):
///
///     8 SINK_DOMAINS  count records of 1 double: the sink's domain index
///                     (a non-negative integer value).  count is 0 (every
///                     sink in domain 0) or exactly the sink count.
///     9 SINK_WINDOWS  count records of 2 doubles: lo, hi (ps; IEEE
///                     +-infinity encodes an unbounded end).  count is 0
///                     (all windows unbounded) or exactly the sink count.
///    10 DOMAIN_BOUNDS count records of 3 doubles: domain index a, domain
///                     index b, bound (ps).
///    11 DOMAIN_NAMES  count strings encoded like NAMES: the declared
///                     domain names in declaration order.
///
/// The writer emits version 1 whenever the benchmark's constraint block is
/// trivial, so constraint-free benchmarks keep their exact legacy bytes;
/// the reader accepts both versions (a version-1 file loads with a trivial
/// constraint block).
///
/// Sections may appear in any file order; the writer emits SCALARS last so
/// a streaming producer (generate_mega_cbench) can derive cap_limit from
/// the sinks it already streamed.  The table is always stored in id order.
///
/// Every malformed input — truncated file, bad magic/version, out-of-range
/// or overlapping sections, checksum mismatch, bad name table, non-integer
/// domain index — raises BenchmarkParseError naming the offending section;
/// no input bytes are ever trusted before validation, so corrupt files
/// cannot cause UB.  See docs/BENCHMARK_FORMAT.md for the normative
/// description.

/// Extension dispatched on by read_benchmark_file / list_benchmark_files.
inline constexpr const char* kCbenchExtension = ".cbench";

/// Magic bytes at offset 0 of every `.cbench` file.
inline constexpr char kCbenchMagic[8] = {'C', 'O', 'N', 'T', 'A', 'N', 'G', 'O'};

/// The legacy constraint-free format version (what the writer emits for
/// benchmarks with a trivial constraint block).
inline constexpr std::uint32_t kCbenchVersion = 1;

/// The constraint-carrying format version.
inline constexpr std::uint32_t kCbenchVersion2 = 2;

/// Number of sections in a version-1 file.
inline constexpr std::uint32_t kCbenchSectionCount = 7;

/// Number of sections in a version-2 file.
inline constexpr std::uint32_t kCbenchSectionCountV2 = 11;

/// Byte size of the fixed version-1 header + section table.
inline constexpr std::size_t kCbenchHeaderBytes = 24 + 7 * 40;

/// Sections in a file of the given version.
constexpr std::uint32_t cbench_section_count(std::uint32_t version) {
  return version >= kCbenchVersion2 ? kCbenchSectionCountV2
                                    : kCbenchSectionCount;
}

/// Byte size of the fixed header + section table for the given version.
constexpr std::size_t cbench_header_bytes(std::uint32_t version) {
  return 24 + static_cast<std::size_t>(cbench_section_count(version)) * 40;
}

/// Section ids (also the storage order of the table).
enum CbenchSectionId : std::uint32_t {
  kCbenchScalars = 1,
  kCbenchCorners = 2,
  kCbenchWires = 3,
  kCbenchInverters = 4,
  kCbenchSinks = 5,
  kCbenchObstacles = 6,
  kCbenchNames = 7,
  // Version-2 timing-constraint sections:
  kCbenchSinkDomains = 8,
  kCbenchSinkWindows = 9,
  kCbenchDomainBounds = 10,
  kCbenchDomainNames = 11,
};

/// Human-readable section name ("SINKS", ...) used in error messages and
/// `contango-pack info`; "?" for an unknown id.
const char* cbench_section_name(std::uint32_t id);

/// Slot indices of the SCALARS section.
enum CbenchScalarSlot : std::size_t {
  kScalarDieXlo = 0,
  kScalarDieYlo = 1,
  kScalarDieXhi = 2,
  kScalarDieYhi = 3,
  kScalarSourceX = 4,
  kScalarSourceY = 5,
  kScalarSourceRes = 6,
  kScalarSlewLimit = 7,
  kScalarCapLimit = 8,
  kScalarSupplyAlpha = 9,
  kScalarRiseFallRatio = 10,
  kCbenchNumScalars = 11,
};

/// \brief Streaming `.cbench` writer over a seekable binary stream.
///
/// Sections are written strictly in the order
/// corners, wires, inverters, sinks, obstacles, [constraints,] names,
/// scalars (the bracketed constraint stage exists only for version-2
/// files), then finish() seeks back and patches the real header + section
/// table over the placeholder written by the constructor.  The sink and
/// name sections stream record-by-record, so a producer can emit a
/// 1M-sink instance without ever materializing it (generators.h:
/// generate_mega_cbench).  Misuse (skipped or repeated stages) throws
/// std::logic_error; invalid payloads (empty corners, non-token names)
/// throw std::invalid_argument, mirroring write_benchmark.
class CbenchWriter {
 public:
  /// \param out seekable binary stream positioned where the file starts
  /// \param version kCbenchVersion (default) or kCbenchVersion2
  explicit CbenchWriter(std::ostream& out,
                        std::uint32_t version = kCbenchVersion);

  void write_corners(const std::vector<double>& corners);
  void write_wires(const std::vector<WireType>& wires);
  void write_inverters(const std::vector<InverterType>& inverters);

  void begin_sinks();
  void add_sink(double x, double y, double cap);
  void end_sinks();

  void write_obstacles(const std::vector<Rect>& obstacles);

  /// Writes the four version-2 constraint sections (SINK_DOMAINS,
  /// SINK_WINDOWS, DOMAIN_BOUNDS, DOMAIN_NAMES).  Per-sink vectors must be
  /// empty or match the sink count already streamed.  \throws
  /// std::logic_error on a version-1 writer.
  void write_constraints(const TimingConstraints& constraints);

  /// Names stream in the fixed order: benchmark, wires, inverters, sinks.
  void begin_names();
  void add_name(const std::string& name);
  void end_names();

  /// \param die,source,tech_scalars the SCALARS slots (see CbenchScalarSlot)
  void write_scalars(const Rect& die, const Point& source, double source_res,
                     double slew_limit, double cap_limit, double supply_alpha,
                     double rise_fall_ratio);

  /// Patches the header/table; the stream is left positioned at the file
  /// end.  \throws std::logic_error if any section is missing
  void finish();

  std::uint64_t sinks_written() const { return sinks_written_; }

 private:
  void begin_section(std::uint32_t id);
  void end_section(std::uint64_t count);
  void raw(const void* data, std::size_t size);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_double(double v);
  void write_string_table(std::uint32_t id,
                          const std::vector<std::string>& strings);

  std::ostream& out_;
  std::ostream::pos_type start_;
  std::uint32_t version_ = kCbenchVersion;
  int stage_ = 0;              ///< index into the fixed section order
  std::uint32_t open_id_ = 0;  ///< section currently being written
  std::uint64_t cursor_ = 0;   ///< bytes emitted so far (header included)
  std::uint64_t section_start_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t sinks_written_ = 0;
  std::uint64_t names_written_ = 0;
  std::uint64_t names_expected_ = 0;
  bool finished_ = false;

  struct TableEntry {
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
    std::uint64_t byte_size = 0;
    std::uint64_t checksum = 0;
    bool present = false;
  };
  std::vector<TableEntry> table_;  ///< indexed by id - 1
};

/// \brief Writes a benchmark as `.cbench` bytes.
/// \param out seekable binary stream (std::ofstream in binary mode or
///        std::ostringstream both qualify)
/// \throws std::invalid_argument on payloads the text writer would also
///         reject (empty corners, names that are not single tokens)
void write_cbench(const Benchmark& bench, std::ostream& out);

/// \brief Writes a benchmark to a `.cbench` file on disk.
/// \throws std::runtime_error when the file cannot be created
void write_cbench_file(const Benchmark& bench, const std::string& path);

/// Count + stride view over one fixed-stride section of doubles inside a
/// mapped file.  `record(i)` points at the i-th record's first double.
struct DoubleRecordsView {
  const double* data = nullptr;
  std::size_t count = 0;
  std::size_t stride = 0;  ///< doubles per record

  const double* record(std::size_t i) const { return data + i * stride; }
};

/// \brief A validated, zero-copy view of a `.cbench` file.
///
/// Opening validates everything up front — magic, version, file size,
/// section table (bounds, 8-byte alignment, stride consistency, overlap),
/// per-section checksums and the full name-table walk — then hands out
/// typed views directly over the mapped bytes.  After open() succeeds,
/// every accessor is bounds-safe by construction.  The double views are
/// 8-byte aligned (section offsets are aligned, and both an mmap mapping
/// and a from_bytes() buffer have aligned bases), so dereferencing them is
/// well-defined.
class MappedBenchmark {
 public:
  /// Maps and validates `path`.
  /// \throws std::runtime_error when the file cannot be opened
  /// \throws BenchmarkParseError naming the malformed header field or
  ///         section otherwise
  static MappedBenchmark open(const std::string& path);

  /// Validates already-loaded bytes; `context` names them in errors.
  static MappedBenchmark from_file(MappedFile file, const std::string& context);

  const std::string& context() const { return context_; }
  bool mapped() const { return file_.mapped(); }
  std::size_t file_size() const { return file_.size(); }
  std::uint32_t version() const { return version_; }

  std::size_t num_corners() const { return count(kCbenchCorners); }
  std::size_t num_wires() const { return count(kCbenchWires); }
  std::size_t num_inverters() const { return count(kCbenchInverters); }
  std::size_t num_sinks() const { return count(kCbenchSinks); }
  std::size_t num_obstacles() const { return count(kCbenchObstacles); }

  /// The 11 SCALARS slots, indexed by CbenchScalarSlot.
  const double* scalars() const { return section_doubles(kCbenchScalars); }
  const double* corners() const { return section_doubles(kCbenchCorners); }
  DoubleRecordsView wire_records() const;      ///< stride 2
  DoubleRecordsView inverter_records() const;  ///< stride 4
  DoubleRecordsView sink_records() const;      ///< stride 3: x, y, cap
  DoubleRecordsView obstacle_records() const;  ///< stride 4, Rect order

  std::string_view benchmark_name() const { return name(0); }
  std::string_view wire_name(std::size_t i) const { return name(1 + i); }
  std::string_view inverter_name(std::size_t i) const {
    return name(1 + num_wires() + i);
  }
  std::string_view sink_name(std::size_t i) const {
    return name(1 + num_wires() + num_inverters() + i);
  }

  /// True when the file carries the version-2 constraint sections.
  bool has_constraint_sections() const { return version_ >= kCbenchVersion2; }

  /// Declared domain names (0 for version-1 files).
  std::size_t num_domain_names() const {
    return has_constraint_sections() ? count(kCbenchDomainNames) : 0;
  }
  std::string_view domain_name(std::size_t i) const;

  /// Version-2 constraint records (version-1 files have none; the views
  /// come back empty).  SINK_DOMAINS stride 1, SINK_WINDOWS stride 2
  /// (lo, hi), DOMAIN_BOUNDS stride 3 (a, b, bound).
  DoubleRecordsView sink_domain_records() const;
  DoubleRecordsView sink_window_records() const;
  DoubleRecordsView domain_bound_records() const;

  /// Materializes the constraint block (trivial for version-1 files).
  TimingConstraints read_constraints() const;

  /// \brief Materializes the benchmark (same result as parsing the
  /// equivalent text file: vdd_nom snaps to the first corner and the
  /// result passes validate()).
  /// \throws std::invalid_argument when the stored data is structurally
  ///         valid but describes an inconsistent benchmark
  Benchmark to_benchmark() const;

  /// STR bulk-built interval index over the OBSTACLES section, fed
  /// directly from the mapped record bytes — no intermediate
  /// std::vector<Rect>.  Query-identical to
  /// RectIntervalIndex(to_benchmark().obstacle_rects).
  RectIntervalIndex obstacle_index() const;

  /// Bulk-built NN grid over the SINKS section (ids are sink indices),
  /// bounded by the stored die rectangle, fed directly from the mapped
  /// record bytes.  nearest()-identical to inserting every sink position
  /// in index order into PointNnGrid(die, num_sinks()).
  PointNnGrid sink_grid() const;

  /// One decoded section-table entry, for `contango-pack info`.
  struct SectionInfo {
    std::uint32_t id = 0;
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
    std::uint64_t byte_size = 0;
    std::uint64_t checksum = 0;
  };
  const std::vector<SectionInfo>& sections() const { return sections_; }

 private:
  MappedBenchmark() = default;
  void validate_and_index();
  const SectionInfo& section(std::uint32_t id) const {
    return sections_[id - 1];
  }
  std::size_t count(std::uint32_t id) const {
    return static_cast<std::size_t>(section(id).count);
  }
  const double* section_doubles(std::uint32_t id) const;
  std::string_view name(std::size_t index) const;

  MappedFile file_;
  std::string context_;
  std::uint32_t version_ = 0;
  std::vector<SectionInfo> sections_;  ///< indexed by id - 1
  /// Byte offsets of each name's length prefix inside the NAMES section
  /// (built during the validation walk; gives O(1) name lookup).
  std::vector<std::uint64_t> name_offsets_;
  /// Same, for the DOMAIN_NAMES section of version-2 files.
  std::vector<std::uint64_t> domain_name_offsets_;
};

/// \brief Reads one benchmark from a `.cbench` file (open + to_benchmark).
/// read_benchmark_file() dispatches here for paths ending in ".cbench".
Benchmark read_cbench_file(const std::string& path);

}  // namespace contango
