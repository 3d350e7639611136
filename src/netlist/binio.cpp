#include "netlist/binio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "netlist/io.h"
#include "util/hash.h"

namespace contango {
namespace {

/// Fixed write order of the sections (the format allows any file order).
/// The version-2 order inserts the constraint sections between OBSTACLES
/// and NAMES.
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

/// Doubles in the SCALARS section.
constexpr std::uint64_t kNumScalars = 11;

/// Bytes per record for the fixed-stride sections; 0 = variable (NAMES,
/// DOMAIN_NAMES).
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

double decode_double(const unsigned char* in) {
  const std::uint64_t bits = decode_u64(in);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

/// Hands the payload bytes of section `id` to `put(bytes, size)`, a record
/// at a time, and returns the section's record count.  The writer runs it
/// twice: once to size and checksum every section, once to emit it.
template <typename Put>
std::uint64_t encode_section(const Benchmark& bench, std::uint32_t id,
                             Put&& put) {
  unsigned char record[4 * sizeof(double)];
  auto doubles = [&](std::initializer_list<double> values) {
    unsigned char* p = record;
    for (double v : values) {
      encode_double(v, p);
      p += sizeof(double);
    }
    put(record, static_cast<std::size_t>(p - record));
  };
  auto string = [&](const std::string& s) {
    encode_u32(static_cast<std::uint32_t>(s.size()), record);
    put(record, 4);
    put(reinterpret_cast<const unsigned char*>(s.data()), s.size());
  };

  const Technology& tech = bench.tech;
  const TimingConstraints& cons = bench.constraints;
  switch (id) {
    case kCbenchScalars:
      doubles({bench.die.xlo, bench.die.ylo, bench.die.xhi, bench.die.yhi});
      doubles({bench.source.x, bench.source.y, bench.source_res,
               tech.slew_limit});
      doubles({tech.cap_limit, tech.supply_alpha, tech.rise_fall_ratio});
      return kNumScalars;
    case kCbenchCorners:
      for (double v : tech.corners) doubles({v});
      return tech.corners.size();
    case kCbenchWires:
      for (const WireType& w : tech.wires) doubles({w.r_per_um, w.c_per_um});
      return tech.wires.size();
    case kCbenchInverters:
      for (const InverterType& inv : tech.inverters) {
        doubles({inv.input_cap, inv.output_cap, inv.output_res,
                 inv.intrinsic_delay});
      }
      return tech.inverters.size();
    case kCbenchSinks:
      for (const Sink& s : bench.sinks) {
        doubles({s.position.x, s.position.y, s.cap});
      }
      return bench.sinks.size();
    case kCbenchObstacles:
      for (const Rect& r : bench.obstacle_rects) {
        doubles({r.xlo, r.ylo, r.xhi, r.yhi});
      }
      return bench.obstacle_rects.size();
    case kCbenchNames:
      string(bench.name);
      for (const WireType& w : tech.wires) string(w.name);
      for (const InverterType& inv : tech.inverters) string(inv.name);
      for (const Sink& s : bench.sinks) string(s.name);
      return 1 + tech.wires.size() + tech.inverters.size() + bench.sinks.size();
    case kCbenchSinkDomains:
      for (std::uint32_t d : cons.sink_domains) {
        doubles({static_cast<double>(d)});
      }
      return cons.sink_domains.size();
    case kCbenchSinkWindows:
      for (const ArrivalWindow& w : cons.sink_windows) doubles({w.lo, w.hi});
      return cons.sink_windows.size();
    case kCbenchDomainBounds:
      for (const DomainBound& b : cons.domain_bounds) {
        doubles({static_cast<double>(b.a), static_cast<double>(b.b), b.bound});
      }
      return cons.domain_bounds.size();
    case kCbenchDomainNames:
      for (const std::string& d : cons.domain_names) string(d);
      return cons.domain_names.size();
    default:
      return 0;
  }
}

[[noreturn]] void fail(const std::string& context, const std::string& message) {
  throw BenchmarkParseError(context, message);
}

[[noreturn]] void fail_section(const std::string& context, std::uint32_t id,
                               const std::string& message) {
  fail(context, "section " + std::string(cbench_section_name(id)) + ": " +
                    message);
}

/// Walks a validated string-table section (NAMES, DOMAIN_NAMES): checks
/// every length prefix and token, then hands each name to
/// `take(index, name)`.
template <typename Take>
void walk_string_table(const unsigned char* base, const CbenchSection& info,
                       const std::string& context, Take&& take) {
  const unsigned char* nbase = base + info.offset;
  std::uint64_t pos = 0;
  for (std::uint64_t i = 0; i < info.count; ++i) {
    if (info.byte_size - pos < 4) {
      fail_section(context, info.id,
                   "name table truncated at entry " + std::to_string(i));
    }
    const std::uint32_t len = decode_u32(nbase + pos);
    if (len == 0) {
      fail_section(context, info.id, "empty name at entry " + std::to_string(i));
    }
    if (len > info.byte_size - pos - 4) {
      fail_section(context, info.id,
                   "name length " + std::to_string(len) + " at entry " +
                       std::to_string(i) + " runs past the section end");
    }
    const char* name = reinterpret_cast<const char*>(nbase + pos + 4);
    for (std::uint32_t b = 0; b < len; ++b) {
      const char c = name[b];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '#') {
        fail_section(context, info.id,
                     "name at entry " + std::to_string(i) +
                         " is not a plain token (whitespace or '#')");
      }
    }
    take(i, std::string_view(name, len));
    pos += 4 + len;
  }
  if (pos != info.byte_size) {
    fail_section(context, info.id, "trailing bytes after the last name");
  }
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
// Writer

namespace {

void write_cbench_unchecked(const Benchmark& bench, std::ostream& out) {
  // Trivial constraint blocks keep the exact legacy version-1 bytes (and
  // therefore the legacy file hashes); only real constraints pay for the
  // version-2 sections.
  const std::uint32_t version =
      bench.constraints.trivial() ? kCbenchVersion : kCbenchVersion2;
  const std::uint32_t num_sections = cbench_section_count(version);
  const std::uint32_t* order =
      version >= kCbenchVersion2 ? kWriteOrderV2 : kWriteOrderV1;

  // Lay the sections out in write order, each at the next 8-byte boundary,
  // and checksum them without writing anything.
  std::vector<CbenchSection> table(num_sections);
  std::uint64_t file_size = cbench_header_bytes(version);
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    CbenchSection& s = table[order[i] - 1];
    s.id = order[i];
    s.offset = (file_size + 7) & ~std::uint64_t{7};
    s.checksum = kFnv64Offset;
    s.count = encode_section(bench, s.id,
                             [&](const unsigned char* p, std::size_t n) {
                               s.checksum = fnv1a64(p, n, s.checksum);
                               s.byte_size += n;
                             });
    file_size = s.offset + s.byte_size;
  }

  std::vector<unsigned char> header(cbench_header_bytes(version), 0);
  std::memcpy(header.data(), kCbenchMagic, sizeof(kCbenchMagic));
  encode_u32(version, header.data() + 8);
  encode_u32(num_sections, header.data() + 12);
  encode_u64(file_size, header.data() + 16);
  for (const CbenchSection& s : table) {
    unsigned char* entry = header.data() + 24 + (s.id - 1) * 40;
    encode_u32(s.id, entry);
    encode_u32(0, entry + 4);  // reserved
    encode_u64(s.offset, entry + 8);
    encode_u64(s.count, entry + 16);
    encode_u64(s.byte_size, entry + 24);
    encode_u64(s.checksum, entry + 32);
  }
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));

  // Payloads; padding belongs to no section.
  std::uint64_t written = header.size();
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    const CbenchSection& s = table[order[i] - 1];
    static const char pad[8] = {0};
    out.write(pad, static_cast<std::streamsize>(s.offset - written));
    encode_section(bench, s.id, [&](const unsigned char* p, std::size_t n) {
      out.write(reinterpret_cast<const char*>(p),
                static_cast<std::streamsize>(n));
    });
    written = s.offset + s.byte_size;
  }
  if (!out) throw std::runtime_error("write_cbench: write failed");
}

}  // namespace

void write_cbench(const Benchmark& bench, std::ostream& out) {
  check_writable(bench);
  write_cbench_unchecked(bench, out);
}

void write_cbench_file(const Benchmark& bench, const std::string& path) {
  check_writable(bench);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write benchmark file: " + path);
  write_cbench_unchecked(bench, out);
  out.flush();
  if (!out) throw std::runtime_error("cannot write benchmark file: " + path);
}

// ---------------------------------------------------------------------------
// Reader

CbenchTable read_cbench_table(const unsigned char* base, std::size_t size,
                              const std::string& context) {
  // Every valid file is at least a version-1 header + table; version-2
  // files re-check against their larger header below.
  if (size < kCbenchHeaderBytes) {
    fail(context, "truncated header: file is " + std::to_string(size) +
                      " bytes, the header and section table need at least " +
                      std::to_string(kCbenchHeaderBytes));
  }
  if (std::memcmp(base, kCbenchMagic, sizeof(kCbenchMagic)) != 0) {
    fail(context, "bad magic: not a .cbench file");
  }
  CbenchTable table;
  table.version = decode_u32(base + 8);
  const std::uint32_t version = table.version;
  if (version != kCbenchVersion && version != kCbenchVersion2) {
    fail(context, "unsupported format version " + std::to_string(version) +
                      " (this reader supports versions " +
                      std::to_string(kCbenchVersion) + ".." +
                      std::to_string(kCbenchVersion2) + ")");
  }
  const std::uint32_t num_sections = cbench_section_count(version);
  const std::uint64_t header_bytes = cbench_header_bytes(version);
  if (size < header_bytes) {
    fail(context, "truncated header: file is " + std::to_string(size) +
                      " bytes, the header and section table need " +
                      std::to_string(header_bytes));
  }
  const std::uint32_t section_count = decode_u32(base + 12);
  if (section_count != num_sections) {
    fail(context, "bad section count " + std::to_string(section_count) +
                      " (version " + std::to_string(version) + " files have " +
                      std::to_string(num_sections) + " sections)");
  }
  const std::uint64_t declared_size = decode_u64(base + 16);
  if (declared_size != size) {
    fail(context, "header file size " + std::to_string(declared_size) +
                      " does not match actual size " + std::to_string(size) +
                      " (truncated or padded file)");
  }

  std::vector<CbenchSection>& sections = table.sections;
  sections.assign(num_sections, CbenchSection{});
  std::vector<bool> seen(num_sections, false);
  for (std::uint32_t e = 0; e < num_sections; ++e) {
    const unsigned char* entry = base + 24 + e * 40;
    const std::uint32_t id = decode_u32(entry);
    if (id < 1 || id > num_sections) {
      fail(context, "section table entry " + std::to_string(e) +
                        ": unknown section id " + std::to_string(id));
    }
    if (seen[id - 1]) {
      fail(context, "duplicate section " + std::string(cbench_section_name(id)) +
                        " in table");
    }
    seen[id - 1] = true;
    if (decode_u32(entry + 4) != 0) {
      fail_section(context, id, "reserved table field is not zero");
    }
    CbenchSection& info = sections[id - 1];
    info.id = id;
    info.offset = decode_u64(entry + 8);
    info.count = decode_u64(entry + 16);
    info.byte_size = decode_u64(entry + 24);
    info.checksum = decode_u64(entry + 32);
  }

  // Bounds, alignment and stride consistency per section.
  for (const CbenchSection& info : sections) {
    if (info.offset % 8 != 0) {
      fail_section(context, info.id,
                   "offset " + std::to_string(info.offset) +
                       " is not 8-byte aligned");
    }
    if (info.offset < header_bytes) {
      fail_section(context, info.id,
                   "offset " + std::to_string(info.offset) +
                       " overlaps the header");
    }
    if (info.byte_size > size || info.offset > size - info.byte_size) {
      fail_section(context, info.id,
                   "extends past end of file (offset " +
                       std::to_string(info.offset) + ", " +
                       std::to_string(info.byte_size) + " bytes, file is " +
                       std::to_string(size) + ")");
    }
    const std::size_t stride = section_stride_bytes(info.id);
    if (stride != 0) {
      if (info.byte_size % stride != 0 ||
          info.byte_size / stride != info.count) {
        fail_section(context, info.id,
                     "record count " + std::to_string(info.count) +
                         " inconsistent with byte size " +
                         std::to_string(info.byte_size) + " (stride " +
                         std::to_string(stride) + ")");
      }
    }
  }
  if (table.section(kCbenchScalars).count != kNumScalars) {
    fail_section(context, kCbenchScalars,
                 "expected " + std::to_string(kNumScalars) +
                     " scalar slots, found " +
                     std::to_string(table.section(kCbenchScalars).count));
  }
  if (table.section(kCbenchCorners).count == 0) {
    fail_section(context, kCbenchCorners, "needs at least one supply corner");
  }

  // No two sections may share bytes.
  std::vector<const CbenchSection*> by_offset;
  by_offset.reserve(sections.size());
  for (const CbenchSection& info : sections) by_offset.push_back(&info);
  // Empty sections legitimately share their offset with the section that
  // follows them, so ties sort by size: a zero-byte section occupies no
  // bytes and must come before a non-empty section at the same offset.
  std::sort(by_offset.begin(), by_offset.end(),
            [](const CbenchSection* a, const CbenchSection* b) {
              if (a->offset != b->offset) return a->offset < b->offset;
              return a->byte_size < b->byte_size;
            });
  for (std::size_t i = 1; i < by_offset.size(); ++i) {
    const CbenchSection* prev = by_offset[i - 1];
    const CbenchSection* next = by_offset[i];
    if (prev->offset + prev->byte_size > next->offset) {
      fail(context, "sections " + std::string(cbench_section_name(prev->id)) +
                        " and " + cbench_section_name(next->id) + " overlap");
    }
  }

  // Checksums over the exact payload bytes.
  for (const CbenchSection& info : sections) {
    const std::uint64_t computed =
        fnv1a64(base + info.offset, static_cast<std::size_t>(info.byte_size));
    if (computed != info.checksum) {
      fail_section(context, info.id,
                   "checksum mismatch (stored " + hex64(info.checksum) +
                       ", computed " + hex64(computed) +
                       ") — file is corrupt");
    }
  }
  return table;
}

Benchmark read_cbench(const unsigned char* base, std::size_t size,
                      const std::string& context) {
  const CbenchTable table = read_cbench_table(base, size, context);
  auto count = [&](std::uint32_t id) {
    return static_cast<std::size_t>(table.section(id).count);
  };
  // Start of record `i` of a fixed-stride section.
  auto record = [&](std::uint32_t id, std::size_t i) {
    return base + table.section(id).offset + i * section_stride_bytes(id);
  };

  Benchmark bench;
  Technology& tech = bench.tech;
  const std::size_t num_wires = count(kCbenchWires);
  const std::size_t num_inverters = count(kCbenchInverters);
  tech.wires.resize(num_wires);
  tech.inverters.resize(num_inverters);
  bench.sinks.resize(count(kCbenchSinks));

  const std::uint64_t expected_names = 1 + num_wires + num_inverters +
                                       bench.sinks.size();
  if (table.section(kCbenchNames).count != expected_names) {
    fail_section(context, kCbenchNames,
                 "name count " +
                     std::to_string(table.section(kCbenchNames).count) +
                     " does not match 1 + wires + inverters + sinks = " +
                     std::to_string(expected_names));
  }
  walk_string_table(
      base, table.section(kCbenchNames), context,
      [&](std::uint64_t i, std::string_view name) {
        if (i == 0) {
          bench.name = name;
        } else if (i <= num_wires) {
          tech.wires[i - 1].name = name;
        } else if (i <= num_wires + num_inverters) {
          tech.inverters[i - 1 - num_wires].name = name;
        } else {
          bench.sinks[i - 1 - num_wires - num_inverters].name = name;
        }
      });

  if (table.version >= kCbenchVersion2) {
    TimingConstraints& cons = bench.constraints;
    walk_string_table(base, table.section(kCbenchDomainNames), context,
                      [&](std::uint64_t, std::string_view name) {
                        cons.domain_names.emplace_back(name);
                      });

    // Constraint record semantics: per-sink sections are empty (all
    // default) or full, domain indices are integral and in range, windows
    // are non-empty intervals, bounds finite.  Every violation names the
    // section, so corrupted constraint sections cannot reach synthesis.
    const std::size_t num_sinks = bench.sinks.size();
    const std::size_t num_domains =
        std::max<std::size_t>(1, cons.domain_names.size());
    auto domain_value = [&](std::uint32_t id, const unsigned char* p) {
      const double v = decode_double(p);
      if (!(v >= 0.0) || v != std::floor(v) ||
          v >= static_cast<double>(num_domains)) {
        fail_section(context, id,
                     "domain index " + std::to_string(v) +
                         " is not an integer in [0, " +
                         std::to_string(num_domains) + ")");
      }
      return static_cast<std::uint32_t>(v);
    };

    if (count(kCbenchSinkDomains) != 0 &&
        count(kCbenchSinkDomains) != num_sinks) {
      fail_section(context, kCbenchSinkDomains,
                   "count " + std::to_string(count(kCbenchSinkDomains)) +
                       " must be 0 or the sink count " +
                       std::to_string(num_sinks));
    }
    cons.sink_domains.reserve(count(kCbenchSinkDomains));
    for (std::size_t i = 0; i < count(kCbenchSinkDomains); ++i) {
      cons.sink_domains.push_back(
          domain_value(kCbenchSinkDomains, record(kCbenchSinkDomains, i)));
    }

    if (count(kCbenchSinkWindows) != 0 &&
        count(kCbenchSinkWindows) != num_sinks) {
      fail_section(context, kCbenchSinkWindows,
                   "count " + std::to_string(count(kCbenchSinkWindows)) +
                       " must be 0 or the sink count " +
                       std::to_string(num_sinks));
    }
    cons.sink_windows.reserve(count(kCbenchSinkWindows));
    for (std::size_t i = 0; i < count(kCbenchSinkWindows); ++i) {
      const unsigned char* rec = record(kCbenchSinkWindows, i);
      const ArrivalWindow w{decode_double(rec), decode_double(rec + 8)};
      if (std::isnan(w.lo) || std::isnan(w.hi) || w.lo > w.hi) {
        fail_section(context, kCbenchSinkWindows,
                     "window " + std::to_string(i) +
                         " is malformed (NaN or lo > hi)");
      }
      cons.sink_windows.push_back(w);
    }

    cons.domain_bounds.reserve(count(kCbenchDomainBounds));
    for (std::size_t i = 0; i < count(kCbenchDomainBounds); ++i) {
      const unsigned char* rec = record(kCbenchDomainBounds, i);
      DomainBound b;
      b.a = domain_value(kCbenchDomainBounds, rec);
      b.b = domain_value(kCbenchDomainBounds, rec + 8);
      b.bound = decode_double(rec + 16);
      if (!std::isfinite(b.bound) || b.bound < 0.0) {
        fail_section(context, kCbenchDomainBounds,
                     "bound " + std::to_string(i) +
                         " must be finite and non-negative");
      }
      cons.domain_bounds.push_back(b);
    }
  }

  // SCALARS slots in file order (see the layout in binio.h).
  auto scalar = [&](std::size_t slot) {
    return decode_double(record(kCbenchScalars, slot));
  };
  bench.die = Rect{scalar(0), scalar(1), scalar(2), scalar(3)};
  bench.source = Point{scalar(4), scalar(5)};
  bench.source_res = scalar(6);
  tech.slew_limit = scalar(7);
  tech.cap_limit = scalar(8);
  tech.supply_alpha = scalar(9);
  tech.rise_fall_ratio = scalar(10);

  tech.corners.clear();
  for (std::size_t i = 0; i < count(kCbenchCorners); ++i) {
    tech.corners.push_back(decode_double(record(kCbenchCorners, i)));
  }
  // Same convention as the text parser: the first corner is nominal.
  tech.vdd_nom = tech.corners.front();

  for (std::size_t i = 0; i < num_wires; ++i) {
    const unsigned char* rec = record(kCbenchWires, i);
    tech.wires[i].r_per_um = decode_double(rec);
    tech.wires[i].c_per_um = decode_double(rec + 8);
  }
  for (std::size_t i = 0; i < num_inverters; ++i) {
    const unsigned char* rec = record(kCbenchInverters, i);
    InverterType& inv = tech.inverters[i];
    inv.input_cap = decode_double(rec);
    inv.output_cap = decode_double(rec + 8);
    inv.output_res = decode_double(rec + 16);
    inv.intrinsic_delay = decode_double(rec + 24);
  }
  for (std::size_t i = 0; i < bench.sinks.size(); ++i) {
    const unsigned char* rec = record(kCbenchSinks, i);
    Sink& s = bench.sinks[i];
    s.position = Point{decode_double(rec), decode_double(rec + 8)};
    s.cap = decode_double(rec + 16);
  }
  bench.obstacle_rects.reserve(count(kCbenchObstacles));
  for (std::size_t i = 0; i < count(kCbenchObstacles); ++i) {
    const unsigned char* rec = record(kCbenchObstacles, i);
    bench.obstacle_rects.push_back(Rect{decode_double(rec),
                                        decode_double(rec + 8),
                                        decode_double(rec + 16),
                                        decode_double(rec + 24)});
  }

  validate(bench);
  return bench;
}

std::vector<unsigned char> read_file_bytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error(path + ": cannot open: " + std::strerror(errno));
  }
  std::vector<unsigned char> bytes;
  std::string error;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    error = std::string("cannot stat: ") + std::strerror(errno);
  } else if (!S_ISREG(st.st_mode)) {
    error = "not a regular file";
  } else {
    bytes.resize(static_cast<std::size_t>(st.st_size));
    // One read() for the whole file; the loop only resumes a read a
    // signal or the kernel cut short.
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        error = n < 0 ? std::string("cannot read: ") + std::strerror(errno)
                      : std::string("file shrank while reading");
        break;
      }
      done += static_cast<std::size_t>(n);
    }
  }
  ::close(fd);
  if (!error.empty()) throw std::runtime_error(path + ": " + error);
  return bytes;
}

Benchmark read_cbench_file(const std::string& path) {
  const std::vector<unsigned char> bytes = read_file_bytes(path);
  return read_cbench(bytes.data(), bytes.size(), path);
}

}  // namespace contango
