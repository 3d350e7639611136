#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/benchmark.h"

namespace contango {

/// \file binio.h
/// \brief On-disk benchmark I/O: the `.cbench` binary format (versions 1-2).
///
/// `.cbench` is the binary companion of the text `.bench` format (io.h):
/// the same information content, stored as fixed-stride little-endian
/// records holding exact IEEE-754 double bits, so a 1M-sink instance loads
/// as one file read, a validation pass and a decode instead of a
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
/// Sections may appear in any file order.  The writer emits CORNERS,
/// WIRES, INVERTERS, SINKS, OBSTACLES, [the four constraint sections,]
/// NAMES and SCALARS last; the table is always stored in id order.
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

/// \brief Writes a benchmark as `.cbench` bytes.
///
/// Emits the header and section table first (a hashing pass over the
/// payloads fills in the checksums), then the payloads, so `out` need not
/// be seekable.
/// \throws std::invalid_argument when check_writable (netlist/io.h) rejects
///         the benchmark, before anything is written
void write_cbench(const Benchmark& bench, std::ostream& out);

/// \brief Writes a benchmark to a `.cbench` file on disk.
/// \throws std::invalid_argument when check_writable rejects the benchmark;
///         the path is then neither created nor truncated
/// \throws std::runtime_error when the file cannot be created
void write_cbench_file(const Benchmark& bench, const std::string& path);

/// One decoded section-table entry.
struct CbenchSection {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
  std::uint64_t byte_size = 0;
  std::uint64_t checksum = 0;
};

/// The validated header of a `.cbench` image.
struct CbenchTable {
  std::uint32_t version = 0;
  std::vector<CbenchSection> sections;  ///< indexed by id - 1

  const CbenchSection& section(std::uint32_t id) const {
    return sections[id - 1];
  }
};

/// \brief Validates the header, section table and section checksums of
/// `.cbench` bytes: magic, version, file size, table entries, bounds,
/// 8-byte alignment, stride consistency, overlap, then every checksum.
/// \param context names the bytes in errors (usually the file path)
/// \throws BenchmarkParseError naming the malformed header field or section
CbenchTable read_cbench_table(const unsigned char* data, std::size_t size,
                              const std::string& context);

/// \brief Decodes `.cbench` bytes into a benchmark.
///
/// Runs read_cbench_table(), then walks the name tables and checks the
/// version-2 constraint records, then decodes every record.  The result is
/// the one parsing the equivalent text file gives: vdd_nom snaps to the
/// first corner and the benchmark passes validate().
/// \throws BenchmarkParseError naming the malformed field or section
/// \throws std::invalid_argument when the bytes are well formed but
///         describe a benchmark validate() rejects
Benchmark read_cbench(const unsigned char* data, std::size_t size,
                      const std::string& context);

/// \brief Reads a whole regular file into memory.
/// \throws std::runtime_error naming the path when it cannot be opened or
///         read, or is not a regular file
std::vector<unsigned char> read_file_bytes(const std::string& path);

/// \brief Reads one benchmark from a `.cbench` file (read_file_bytes +
/// read_cbench with the path as context).  read_benchmark_file()
/// dispatches here for paths ending in ".cbench".
Benchmark read_cbench_file(const std::string& path);

}  // namespace contango
