#include "netlist/binio.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "netlist/io.h"
#include "util/hash.h"

namespace contango {
namespace {

/// Fixed write order of the sections (the format allows any file order;
/// the writer streams SCALARS last so streaming producers can derive
/// cap_limit from the sinks they already emitted).  The version-2 order
/// inserts the constraint sections between OBSTACLES and NAMES.
constexpr std::uint32_t kWriteOrderV1[kCbenchSectionCount] = {
    kCbenchCorners, kCbenchWires,     kCbenchInverters, kCbenchSinks,
    kCbenchObstacles, kCbenchNames,   kCbenchScalars,
};
constexpr std::uint32_t kWriteOrderV2[kCbenchSectionCountV2] = {
    kCbenchCorners,     kCbenchWires,       kCbenchInverters,
    kCbenchSinks,       kCbenchObstacles,   kCbenchSinkDomains,
    kCbenchSinkWindows, kCbenchDomainBounds, kCbenchDomainNames,
    kCbenchNames,       kCbenchScalars,
};

const std::uint32_t* write_order(std::uint32_t version) {
  return version >= kCbenchVersion2 ? kWriteOrderV2 : kWriteOrderV1;
}

/// Bytes per record for the fixed-stride sections; 0 = variable (NAMES,
/// DOMAIN_NAMES) or whole-section (SCALARS handled separately).
std::size_t section_stride_bytes(std::uint32_t id) {
  switch (id) {
    case kCbenchScalars:      return sizeof(double);
    case kCbenchCorners:      return sizeof(double);
    case kCbenchWires:        return 2 * sizeof(double);
    case kCbenchInverters:    return 4 * sizeof(double);
    case kCbenchSinks:        return 3 * sizeof(double);
    case kCbenchObstacles:    return 4 * sizeof(double);
    case kCbenchSinkDomains:  return sizeof(double);
    case kCbenchSinkWindows:  return 2 * sizeof(double);
    case kCbenchDomainBounds: return 3 * sizeof(double);
    default:                  return 0;
  }
}

bool host_is_little_endian() {
  const std::uint16_t probe = 1;
  unsigned char low;
  std::memcpy(&low, &probe, 1);
  return low == 1;
}

void encode_u32(std::uint32_t v, unsigned char* out) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

void encode_u64(std::uint64_t v, unsigned char* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

void encode_double(double v, unsigned char* out) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  encode_u64(bits, out);
}

std::uint32_t decode_u32(const unsigned char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return v;
}

std::uint64_t decode_u64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

}  // namespace

const char* cbench_section_name(std::uint32_t id) {
  switch (id) {
    case kCbenchScalars:      return "SCALARS";
    case kCbenchCorners:      return "CORNERS";
    case kCbenchWires:        return "WIRES";
    case kCbenchInverters:    return "INVERTERS";
    case kCbenchSinks:        return "SINKS";
    case kCbenchObstacles:    return "OBSTACLES";
    case kCbenchNames:        return "NAMES";
    case kCbenchSinkDomains:  return "SINK_DOMAINS";
    case kCbenchSinkWindows:  return "SINK_WINDOWS";
    case kCbenchDomainBounds: return "DOMAIN_BOUNDS";
    case kCbenchDomainNames:  return "DOMAIN_NAMES";
    default:                  return "?";
  }
}

// ---------------------------------------------------------------------------
// CbenchWriter

CbenchWriter::CbenchWriter(std::ostream& out, std::uint32_t version)
    : out_(out), version_(version) {
  if (version_ != kCbenchVersion && version_ != kCbenchVersion2) {
    throw std::invalid_argument("CbenchWriter: unsupported format version " +
                                std::to_string(version_));
  }
  start_ = out_.tellp();
  if (start_ == std::ostream::pos_type(-1)) {
    throw std::runtime_error("CbenchWriter: output stream is not seekable");
  }
  table_.assign(cbench_section_count(version_), TableEntry{});
  // Placeholder header + table, patched by finish().
  const std::vector<char> zeros(cbench_header_bytes(version_), 0);
  out_.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  cursor_ = cbench_header_bytes(version_);
}

void CbenchWriter::raw(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  checksum_ = fnv1a64(data, size, checksum_);
  cursor_ += size;
}

void CbenchWriter::put_u32(std::uint32_t v) {
  unsigned char bytes[4];
  encode_u32(v, bytes);
  raw(bytes, sizeof(bytes));
}

void CbenchWriter::put_u64(std::uint64_t v) {
  unsigned char bytes[8];
  encode_u64(v, bytes);
  raw(bytes, sizeof(bytes));
}

void CbenchWriter::put_double(double v) {
  unsigned char bytes[8];
  encode_double(v, bytes);
  raw(bytes, sizeof(bytes));
}

void CbenchWriter::begin_section(std::uint32_t id) {
  const std::uint32_t* order = write_order(version_);
  const int num_sections = static_cast<int>(cbench_section_count(version_));
  const int expected_stage = [&] {
    for (int i = 0; i < num_sections; ++i) {
      if (order[i] == id) return i;
    }
    return -1;
  }();
  if (expected_stage < 0 || stage_ != expected_stage || open_id_ != 0 ||
      finished_) {
    throw std::logic_error(
        "CbenchWriter: sections must be written exactly once, in the order "
        "corners, wires, inverters, sinks, obstacles, [constraints,] names, "
        "scalars");
  }
  // Zero-pad to the next 8-byte boundary; padding belongs to no section.
  static const char pad[8] = {0};
  const std::size_t misalign = cursor_ % 8;
  if (misalign != 0) {
    out_.write(pad, static_cast<std::streamsize>(8 - misalign));
    cursor_ += 8 - misalign;
  }
  open_id_ = id;
  section_start_ = cursor_;
  checksum_ = kFnv64Offset;
}

void CbenchWriter::end_section(std::uint64_t count) {
  TableEntry& entry = table_[open_id_ - 1];
  entry.offset = section_start_;
  entry.count = count;
  entry.byte_size = cursor_ - section_start_;
  entry.checksum = checksum_;
  entry.present = true;
  open_id_ = 0;
  ++stage_;
}

void CbenchWriter::write_corners(const std::vector<double>& corners) {
  if (corners.empty()) {
    throw std::invalid_argument(
        "CbenchWriter: corners needs at least one supply voltage");
  }
  begin_section(kCbenchCorners);
  for (double v : corners) put_double(v);
  end_section(corners.size());
}

void CbenchWriter::write_wires(const std::vector<WireType>& wires) {
  begin_section(kCbenchWires);
  for (const WireType& w : wires) {
    put_double(w.r_per_um);
    put_double(w.c_per_um);
  }
  end_section(wires.size());
}

void CbenchWriter::write_inverters(const std::vector<InverterType>& inverters) {
  begin_section(kCbenchInverters);
  for (const InverterType& inv : inverters) {
    put_double(inv.input_cap);
    put_double(inv.output_cap);
    put_double(inv.output_res);
    put_double(inv.intrinsic_delay);
  }
  end_section(inverters.size());
}

void CbenchWriter::begin_sinks() { begin_section(kCbenchSinks); }

void CbenchWriter::add_sink(double x, double y, double cap) {
  if (open_id_ != kCbenchSinks) {
    throw std::logic_error("CbenchWriter: add_sink outside begin/end_sinks");
  }
  unsigned char record[24];
  encode_double(x, record);
  encode_double(y, record + 8);
  encode_double(cap, record + 16);
  raw(record, sizeof(record));
  ++sinks_written_;
}

void CbenchWriter::end_sinks() {
  if (open_id_ != kCbenchSinks) {
    throw std::logic_error("CbenchWriter: end_sinks without begin_sinks");
  }
  end_section(sinks_written_);
}

void CbenchWriter::write_obstacles(const std::vector<Rect>& obstacles) {
  begin_section(kCbenchObstacles);
  for (const Rect& r : obstacles) {
    put_double(r.xlo);
    put_double(r.ylo);
    put_double(r.xhi);
    put_double(r.yhi);
  }
  end_section(obstacles.size());
}

void CbenchWriter::write_string_table(std::uint32_t id,
                                      const std::vector<std::string>& strings) {
  begin_section(id);
  for (const std::string& s : strings) {
    require_token_name(s, "cbench");
    put_u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  end_section(strings.size());
}

void CbenchWriter::write_constraints(const TimingConstraints& constraints) {
  if (version_ < kCbenchVersion2) {
    throw std::logic_error(
        "CbenchWriter: constraint sections need a version-2 writer");
  }
  const std::uint64_t sinks = table_[kCbenchSinks - 1].count;
  if (!constraints.sink_domains.empty() &&
      constraints.sink_domains.size() != sinks) {
    throw std::invalid_argument(
        "CbenchWriter: sink domain list does not match sink count");
  }
  if (!constraints.sink_windows.empty() &&
      constraints.sink_windows.size() != sinks) {
    throw std::invalid_argument(
        "CbenchWriter: sink window list does not match sink count");
  }

  begin_section(kCbenchSinkDomains);
  for (std::uint32_t d : constraints.sink_domains) {
    put_double(static_cast<double>(d));
  }
  end_section(constraints.sink_domains.size());

  begin_section(kCbenchSinkWindows);
  for (const ArrivalWindow& w : constraints.sink_windows) {
    put_double(w.lo);
    put_double(w.hi);
  }
  end_section(constraints.sink_windows.size());

  begin_section(kCbenchDomainBounds);
  for (const DomainBound& b : constraints.domain_bounds) {
    put_double(static_cast<double>(b.a));
    put_double(static_cast<double>(b.b));
    put_double(b.bound);
  }
  end_section(constraints.domain_bounds.size());

  write_string_table(kCbenchDomainNames, constraints.domain_names);
}

void CbenchWriter::begin_names() {
  begin_section(kCbenchNames);
  // benchmark name + one name per wire, inverter and sink.
  names_expected_ = 1 + table_[kCbenchWires - 1].count +
                    table_[kCbenchInverters - 1].count +
                    table_[kCbenchSinks - 1].count;
}

void CbenchWriter::add_name(const std::string& name) {
  if (open_id_ != kCbenchNames) {
    throw std::logic_error("CbenchWriter: add_name outside begin/end_names");
  }
  require_token_name(name, "cbench");
  if (names_written_ == names_expected_) {
    throw std::logic_error("CbenchWriter: more names than records");
  }
  put_u32(static_cast<std::uint32_t>(name.size()));
  raw(name.data(), name.size());
  ++names_written_;
}

void CbenchWriter::end_names() {
  if (open_id_ != kCbenchNames) {
    throw std::logic_error("CbenchWriter: end_names without begin_names");
  }
  if (names_written_ != names_expected_) {
    throw std::logic_error(
        "CbenchWriter: name count does not match 1 + wires + inverters + "
        "sinks (" + std::to_string(names_written_) + " written, " +
        std::to_string(names_expected_) + " expected)");
  }
  end_section(names_written_);
}

void CbenchWriter::write_scalars(const Rect& die, const Point& source,
                                 double source_res, double slew_limit,
                                 double cap_limit, double supply_alpha,
                                 double rise_fall_ratio) {
  begin_section(kCbenchScalars);
  put_double(die.xlo);
  put_double(die.ylo);
  put_double(die.xhi);
  put_double(die.yhi);
  put_double(source.x);
  put_double(source.y);
  put_double(source_res);
  put_double(slew_limit);
  put_double(cap_limit);
  put_double(supply_alpha);
  put_double(rise_fall_ratio);
  end_section(kCbenchNumScalars);
}

void CbenchWriter::finish() {
  const std::uint32_t num_sections = cbench_section_count(version_);
  if (stage_ != static_cast<int>(num_sections) || open_id_ != 0 || finished_) {
    throw std::logic_error("CbenchWriter: finish before all sections written");
  }
  finished_ = true;

  std::vector<unsigned char> header(cbench_header_bytes(version_), 0);
  std::memcpy(header.data(), kCbenchMagic, sizeof(kCbenchMagic));
  encode_u32(version_, header.data() + 8);
  encode_u32(num_sections, header.data() + 12);
  encode_u64(cursor_, header.data() + 16);
  for (std::uint32_t id = 1; id <= num_sections; ++id) {
    unsigned char* entry = header.data() + 24 + (id - 1) * 40;
    const TableEntry& t = table_[id - 1];
    encode_u32(id, entry);
    encode_u32(0, entry + 4);  // reserved
    encode_u64(t.offset, entry + 8);
    encode_u64(t.count, entry + 16);
    encode_u64(t.byte_size, entry + 24);
    encode_u64(t.checksum, entry + 32);
  }
  out_.seekp(start_);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.seekp(start_ + static_cast<std::ostream::off_type>(cursor_));
  if (!out_) throw std::runtime_error("CbenchWriter: write failed");
}

void write_cbench(const Benchmark& bench, std::ostream& out) {
  // Validate every name before emitting any bytes, so a bad name cannot
  // leave a half-written file behind (mirrors write_benchmark).
  require_token_name(bench.name, "benchmark");
  for (const WireType& w : bench.tech.wires) require_token_name(w.name, "wire");
  for (const InverterType& inv : bench.tech.inverters) {
    require_token_name(inv.name, "inverter");
  }
  for (const Sink& s : bench.sinks) require_token_name(s.name, "sink");
  for (const std::string& d : bench.constraints.domain_names) {
    require_token_name(d, "domain");
  }

  // Trivial constraint blocks keep the exact legacy version-1 bytes (and
  // therefore the legacy file hashes); only real constraints pay for the
  // version-2 sections.
  const std::uint32_t version =
      bench.constraints.trivial() ? kCbenchVersion : kCbenchVersion2;
  CbenchWriter writer(out, version);
  writer.write_corners(bench.tech.corners);
  writer.write_wires(bench.tech.wires);
  writer.write_inverters(bench.tech.inverters);
  writer.begin_sinks();
  for (const Sink& s : bench.sinks) {
    writer.add_sink(s.position.x, s.position.y, s.cap);
  }
  writer.end_sinks();
  writer.write_obstacles(bench.obstacle_rects);
  if (version >= kCbenchVersion2) writer.write_constraints(bench.constraints);
  writer.begin_names();
  writer.add_name(bench.name);
  for (const WireType& w : bench.tech.wires) writer.add_name(w.name);
  for (const InverterType& inv : bench.tech.inverters) writer.add_name(inv.name);
  for (const Sink& s : bench.sinks) writer.add_name(s.name);
  writer.end_names();
  writer.write_scalars(bench.die, bench.source, bench.source_res,
                       bench.tech.slew_limit, bench.tech.cap_limit,
                       bench.tech.supply_alpha, bench.tech.rise_fall_ratio);
  writer.finish();
}

void write_cbench_file(const Benchmark& bench, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write benchmark file: " + path);
  write_cbench(bench, out);
  out.flush();
  if (!out) throw std::runtime_error("cannot write benchmark file: " + path);
}

// ---------------------------------------------------------------------------
// MappedBenchmark

MappedBenchmark MappedBenchmark::open(const std::string& path) {
  return from_file(MappedFile::open(path), path);
}

MappedBenchmark MappedBenchmark::from_file(MappedFile file,
                                           const std::string& context) {
  MappedBenchmark mapped;
  mapped.file_ = std::move(file);
  mapped.context_ = context;
  mapped.validate_and_index();
  return mapped;
}

void MappedBenchmark::validate_and_index() {
  auto fail = [&](const std::string& message) -> void {
    throw BenchmarkParseError(context_, message);
  };
  auto fail_section = [&](std::uint32_t id, const std::string& message) {
    fail("section " + std::string(cbench_section_name(id)) + ": " + message);
  };

  if (!host_is_little_endian()) {
    // The zero-copy double views reinterpret file bytes in place, which is
    // only correct when host and format byte order agree.
    throw std::runtime_error(
        "the .cbench loader requires a little-endian host");
  }

  const unsigned char* base = file_.data();
  const std::uint64_t size = file_.size();
  // Every valid file is at least a version-1 header + table; version-2
  // files re-check against their larger header below.
  if (size < kCbenchHeaderBytes) {
    fail("truncated header: file is " + std::to_string(size) +
         " bytes, the header and section table need at least " +
         std::to_string(kCbenchHeaderBytes));
  }
  if (std::memcmp(base, kCbenchMagic, sizeof(kCbenchMagic)) != 0) {
    fail("bad magic: not a .cbench file");
  }
  version_ = decode_u32(base + 8);
  if (version_ != kCbenchVersion && version_ != kCbenchVersion2) {
    fail("unsupported format version " + std::to_string(version_) +
         " (this reader supports versions " + std::to_string(kCbenchVersion) +
         ".." + std::to_string(kCbenchVersion2) + ")");
  }
  const std::uint32_t num_sections = cbench_section_count(version_);
  const std::uint64_t header_bytes = cbench_header_bytes(version_);
  if (size < header_bytes) {
    fail("truncated header: file is " + std::to_string(size) +
         " bytes, the header and section table need " +
         std::to_string(header_bytes));
  }
  const std::uint32_t section_count = decode_u32(base + 12);
  if (section_count != num_sections) {
    fail("bad section count " + std::to_string(section_count) + " (version " +
         std::to_string(version_) + " files have " +
         std::to_string(num_sections) + " sections)");
  }
  const std::uint64_t declared_size = decode_u64(base + 16);
  if (declared_size != size) {
    fail("header file size " + std::to_string(declared_size) +
         " does not match actual size " + std::to_string(size) +
         " (truncated or padded file)");
  }

  sections_.assign(num_sections, SectionInfo{});
  std::vector<bool> seen(num_sections, false);
  for (std::uint32_t e = 0; e < num_sections; ++e) {
    const unsigned char* entry = base + 24 + e * 40;
    const std::uint32_t id = decode_u32(entry);
    if (id < 1 || id > num_sections) {
      fail("section table entry " + std::to_string(e) +
           ": unknown section id " + std::to_string(id));
    }
    if (seen[id - 1]) {
      fail("duplicate section " + std::string(cbench_section_name(id)) +
           " in table");
    }
    seen[id - 1] = true;
    if (decode_u32(entry + 4) != 0) {
      fail_section(id, "reserved table field is not zero");
    }
    SectionInfo& info = sections_[id - 1];
    info.id = id;
    info.offset = decode_u64(entry + 8);
    info.count = decode_u64(entry + 16);
    info.byte_size = decode_u64(entry + 24);
    info.checksum = decode_u64(entry + 32);
  }

  // Bounds, alignment and stride consistency per section.
  for (const SectionInfo& info : sections_) {
    if (info.offset % 8 != 0) {
      fail_section(info.id, "offset " + std::to_string(info.offset) +
                                " is not 8-byte aligned");
    }
    if (info.offset < header_bytes) {
      fail_section(info.id, "offset " + std::to_string(info.offset) +
                                " overlaps the header");
    }
    if (info.byte_size > size || info.offset > size - info.byte_size) {
      fail_section(info.id,
                   "extends past end of file (offset " +
                       std::to_string(info.offset) + ", " +
                       std::to_string(info.byte_size) + " bytes, file is " +
                       std::to_string(size) + ")");
    }
    const std::size_t stride = section_stride_bytes(info.id);
    if (stride != 0) {
      if (info.byte_size % stride != 0 ||
          info.byte_size / stride != info.count) {
        fail_section(info.id, "record count " + std::to_string(info.count) +
                                  " inconsistent with byte size " +
                                  std::to_string(info.byte_size) +
                                  " (stride " + std::to_string(stride) + ")");
      }
    }
  }
  if (section(kCbenchScalars).count != kCbenchNumScalars) {
    fail_section(kCbenchScalars,
                 "expected " + std::to_string(kCbenchNumScalars) +
                     " scalar slots, found " +
                     std::to_string(section(kCbenchScalars).count));
  }
  if (section(kCbenchCorners).count == 0) {
    fail_section(kCbenchCorners, "needs at least one supply corner");
  }

  // No two sections may share bytes.
  std::vector<const SectionInfo*> by_offset;
  by_offset.reserve(sections_.size());
  for (const SectionInfo& info : sections_) by_offset.push_back(&info);
  // Empty sections legitimately share their offset with the section that
  // follows them, so ties sort by size: a zero-byte section occupies no
  // bytes and must come before a non-empty section at the same offset.
  std::sort(by_offset.begin(), by_offset.end(),
            [](const SectionInfo* a, const SectionInfo* b) {
              if (a->offset != b->offset) return a->offset < b->offset;
              return a->byte_size < b->byte_size;
            });
  for (std::size_t i = 1; i < by_offset.size(); ++i) {
    const SectionInfo* prev = by_offset[i - 1];
    const SectionInfo* next = by_offset[i];
    if (prev->offset + prev->byte_size > next->offset) {
      fail("sections " + std::string(cbench_section_name(prev->id)) + " and " +
           cbench_section_name(next->id) + " overlap");
    }
  }

  // Checksums over the exact payload bytes.
  for (const SectionInfo& info : sections_) {
    const std::uint64_t computed =
        fnv1a64(base + info.offset, static_cast<std::size_t>(info.byte_size));
    if (computed != info.checksum) {
      fail_section(info.id, "checksum mismatch (stored " +
                                hex64(info.checksum) + ", computed " +
                                hex64(computed) + ") — file is corrupt");
    }
  }

  // Walks a string-table section (NAMES, DOMAIN_NAMES): validates every
  // length prefix and token and leaves an offset index behind for O(1)
  // name lookup.
  auto walk_string_table = [&](const SectionInfo& info,
                               std::vector<std::uint64_t>& offsets) {
    offsets.clear();
    offsets.reserve(static_cast<std::size_t>(info.count));
    const unsigned char* nbase = base + info.offset;
    std::uint64_t pos = 0;
    for (std::uint64_t i = 0; i < info.count; ++i) {
      if (info.byte_size - pos < 4) {
        fail_section(info.id,
                     "name table truncated at entry " + std::to_string(i));
      }
      const std::uint32_t len = decode_u32(nbase + pos);
      if (len == 0) {
        fail_section(info.id, "empty name at entry " + std::to_string(i));
      }
      if (len > info.byte_size - pos - 4) {
        fail_section(info.id, "name length " + std::to_string(len) +
                                  " at entry " + std::to_string(i) +
                                  " runs past the section end");
      }
      for (std::uint32_t b = 0; b < len; ++b) {
        const unsigned char c = nbase[pos + 4 + b];
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '#') {
          fail_section(info.id,
                       "name at entry " + std::to_string(i) +
                           " is not a plain token (whitespace or '#')");
        }
      }
      offsets.push_back(pos);
      pos += 4 + len;
    }
    if (pos != info.byte_size) {
      fail_section(info.id, "trailing bytes after the last name");
    }
  };

  const SectionInfo& names = section(kCbenchNames);
  const std::uint64_t expected_names = 1 + section(kCbenchWires).count +
                                       section(kCbenchInverters).count +
                                       section(kCbenchSinks).count;
  if (names.count != expected_names) {
    fail_section(kCbenchNames,
                 "name count " + std::to_string(names.count) +
                     " does not match 1 + wires + inverters + sinks = " +
                     std::to_string(expected_names));
  }
  walk_string_table(names, name_offsets_);

  if (version_ >= kCbenchVersion2) {
    walk_string_table(section(kCbenchDomainNames), domain_name_offsets_);

    // Constraint record semantics: per-sink sections are empty (all
    // default) or full, domain indices are integral and in range, windows
    // are non-empty intervals, bounds finite.  Every violation names the
    // section, so corrupted constraint sections cannot reach synthesis.
    const std::uint64_t num_sinks = section(kCbenchSinks).count;
    const std::uint64_t num_domains =
        std::max<std::uint64_t>(1, section(kCbenchDomainNames).count);

    auto check_domain_value = [&](std::uint32_t id, double v) {
      if (!(v >= 0.0) || v != std::floor(v) ||
          v >= static_cast<double>(num_domains)) {
        fail_section(id, "domain index " + std::to_string(v) +
                             " is not an integer in [0, " +
                             std::to_string(num_domains) + ")");
      }
    };

    const SectionInfo& sink_domains = section(kCbenchSinkDomains);
    if (sink_domains.count != 0 && sink_domains.count != num_sinks) {
      fail_section(kCbenchSinkDomains,
                   "count " + std::to_string(sink_domains.count) +
                       " must be 0 or the sink count " +
                       std::to_string(num_sinks));
    }
    const double* domain_values =
        reinterpret_cast<const double*>(base + sink_domains.offset);
    for (std::uint64_t i = 0; i < sink_domains.count; ++i) {
      check_domain_value(kCbenchSinkDomains, domain_values[i]);
    }

    const SectionInfo& sink_windows = section(kCbenchSinkWindows);
    if (sink_windows.count != 0 && sink_windows.count != num_sinks) {
      fail_section(kCbenchSinkWindows,
                   "count " + std::to_string(sink_windows.count) +
                       " must be 0 or the sink count " +
                       std::to_string(num_sinks));
    }
    const double* window_values =
        reinterpret_cast<const double*>(base + sink_windows.offset);
    for (std::uint64_t i = 0; i < sink_windows.count; ++i) {
      const double lo = window_values[2 * i];
      const double hi = window_values[2 * i + 1];
      if (std::isnan(lo) || std::isnan(hi) || lo > hi) {
        fail_section(kCbenchSinkWindows,
                     "window " + std::to_string(i) + " is malformed (NaN or "
                     "lo > hi)");
      }
    }

    const SectionInfo& domain_bounds = section(kCbenchDomainBounds);
    const double* bound_values =
        reinterpret_cast<const double*>(base + domain_bounds.offset);
    for (std::uint64_t i = 0; i < domain_bounds.count; ++i) {
      check_domain_value(kCbenchDomainBounds, bound_values[3 * i]);
      check_domain_value(kCbenchDomainBounds, bound_values[3 * i + 1]);
      const double bound = bound_values[3 * i + 2];
      if (!std::isfinite(bound) || bound < 0.0) {
        fail_section(kCbenchDomainBounds,
                     "bound " + std::to_string(i) +
                         " must be finite and non-negative");
      }
    }
  }
}

const double* MappedBenchmark::section_doubles(std::uint32_t id) const {
  return reinterpret_cast<const double*>(file_.data() + section(id).offset);
}

std::string_view MappedBenchmark::name(std::size_t index) const {
  const SectionInfo& names = section(kCbenchNames);
  const unsigned char* nbase = file_.data() + names.offset;
  const std::uint64_t off = name_offsets_[index];
  const std::uint32_t len = decode_u32(nbase + off);
  return std::string_view(reinterpret_cast<const char*>(nbase + off + 4), len);
}

DoubleRecordsView MappedBenchmark::wire_records() const {
  return {section_doubles(kCbenchWires), num_wires(), 2};
}

DoubleRecordsView MappedBenchmark::inverter_records() const {
  return {section_doubles(kCbenchInverters), num_inverters(), 4};
}

DoubleRecordsView MappedBenchmark::sink_records() const {
  return {section_doubles(kCbenchSinks), num_sinks(), 3};
}

DoubleRecordsView MappedBenchmark::obstacle_records() const {
  return {section_doubles(kCbenchObstacles), num_obstacles(), 4};
}

std::string_view MappedBenchmark::domain_name(std::size_t index) const {
  const SectionInfo& names = section(kCbenchDomainNames);
  const unsigned char* nbase = file_.data() + names.offset;
  const std::uint64_t off = domain_name_offsets_[index];
  const std::uint32_t len = decode_u32(nbase + off);
  return std::string_view(reinterpret_cast<const char*>(nbase + off + 4), len);
}

DoubleRecordsView MappedBenchmark::sink_domain_records() const {
  if (!has_constraint_sections()) return {};
  return {section_doubles(kCbenchSinkDomains), count(kCbenchSinkDomains), 1};
}

DoubleRecordsView MappedBenchmark::sink_window_records() const {
  if (!has_constraint_sections()) return {};
  return {section_doubles(kCbenchSinkWindows), count(kCbenchSinkWindows), 2};
}

DoubleRecordsView MappedBenchmark::domain_bound_records() const {
  if (!has_constraint_sections()) return {};
  return {section_doubles(kCbenchDomainBounds), count(kCbenchDomainBounds), 3};
}

TimingConstraints MappedBenchmark::read_constraints() const {
  TimingConstraints cons;
  if (!has_constraint_sections()) return cons;

  cons.domain_names.reserve(num_domain_names());
  for (std::size_t i = 0; i < num_domain_names(); ++i) {
    cons.domain_names.emplace_back(domain_name(i));
  }

  const DoubleRecordsView domains = sink_domain_records();
  cons.sink_domains.reserve(domains.count);
  for (std::size_t i = 0; i < domains.count; ++i) {
    cons.sink_domains.push_back(
        static_cast<std::uint32_t>(*domains.record(i)));
  }

  const DoubleRecordsView windows = sink_window_records();
  cons.sink_windows.reserve(windows.count);
  for (std::size_t i = 0; i < windows.count; ++i) {
    const double* rec = windows.record(i);
    cons.sink_windows.push_back(ArrivalWindow{rec[0], rec[1]});
  }

  const DoubleRecordsView bounds = domain_bound_records();
  cons.domain_bounds.reserve(bounds.count);
  for (std::size_t i = 0; i < bounds.count; ++i) {
    const double* rec = bounds.record(i);
    DomainBound b;
    b.a = static_cast<std::uint32_t>(rec[0]);
    b.b = static_cast<std::uint32_t>(rec[1]);
    b.bound = rec[2];
    cons.domain_bounds.push_back(b);
  }
  return cons;
}

Benchmark MappedBenchmark::to_benchmark() const {
  Benchmark bench;
  bench.name = std::string(benchmark_name());

  const double* sc = scalars();
  bench.die.xlo = sc[kScalarDieXlo];
  bench.die.ylo = sc[kScalarDieYlo];
  bench.die.xhi = sc[kScalarDieXhi];
  bench.die.yhi = sc[kScalarDieYhi];
  bench.source.x = sc[kScalarSourceX];
  bench.source.y = sc[kScalarSourceY];
  bench.source_res = sc[kScalarSourceRes];
  bench.tech.slew_limit = sc[kScalarSlewLimit];
  bench.tech.cap_limit = sc[kScalarCapLimit];
  bench.tech.supply_alpha = sc[kScalarSupplyAlpha];
  bench.tech.rise_fall_ratio = sc[kScalarRiseFallRatio];

  bench.tech.corners.assign(corners(), corners() + num_corners());
  // Same convention as the text parser: the first corner is nominal.
  bench.tech.vdd_nom = bench.tech.corners.front();

  const DoubleRecordsView wires = wire_records();
  bench.tech.wires.clear();
  bench.tech.wires.reserve(wires.count);
  for (std::size_t i = 0; i < wires.count; ++i) {
    const double* rec = wires.record(i);
    WireType w;
    w.name = std::string(wire_name(i));
    w.r_per_um = rec[0];
    w.c_per_um = rec[1];
    bench.tech.wires.push_back(std::move(w));
  }

  const DoubleRecordsView inverters = inverter_records();
  bench.tech.inverters.clear();
  bench.tech.inverters.reserve(inverters.count);
  for (std::size_t i = 0; i < inverters.count; ++i) {
    const double* rec = inverters.record(i);
    InverterType inv;
    inv.name = std::string(inverter_name(i));
    inv.input_cap = rec[0];
    inv.output_cap = rec[1];
    inv.output_res = rec[2];
    inv.intrinsic_delay = rec[3];
    bench.tech.inverters.push_back(std::move(inv));
  }

  const DoubleRecordsView sinks = sink_records();
  bench.sinks.reserve(sinks.count);
  for (std::size_t i = 0; i < sinks.count; ++i) {
    const double* rec = sinks.record(i);
    Sink s;
    s.name = std::string(sink_name(i));
    s.position.x = rec[0];
    s.position.y = rec[1];
    s.cap = rec[2];
    bench.sinks.push_back(std::move(s));
  }

  const DoubleRecordsView obstacles = obstacle_records();
  bench.obstacle_rects.reserve(obstacles.count);
  for (std::size_t i = 0; i < obstacles.count; ++i) {
    const double* rec = obstacles.record(i);
    Rect r;
    r.xlo = rec[0];
    r.ylo = rec[1];
    r.xhi = rec[2];
    r.yhi = rec[3];
    bench.obstacle_rects.push_back(r);
  }

  bench.constraints = read_constraints();

  validate(bench);
  return bench;
}

Benchmark read_cbench_file(const std::string& path) {
  return MappedBenchmark::open(path).to_benchmark();
}

}  // namespace contango
