// contango-pack: convert, verify and inspect benchmarks across the text
// `.bench` and binary `.cbench` formats (netlist/io.h, netlist/binio.h).
//
// usage:
//   contango-pack pack <in> <out.cbench>      convert to binary
//   contango-pack unpack <in> <out.bench>     convert to text
//   contango-pack verify <a> [b]              one file: round-trip it
//                                             through the other format and
//                                             compare canonical text; two
//                                             files: compare their content
//   contango-pack info <file.cbench>          header + section table
//   contango-pack gen-mega <sinks> <seed> <out.cbench>
//                                             generate a mega-family
//                                             instance and write it as
//                                             binary
//
// pack/unpack accept either format as input (the reader dispatches on the
// extension), so `pack x.cbench y.cbench` re-canonicalizes a binary file.
// Conversions are lossless: unpack(pack(x)) reproduces the exporter's text
// bytes, which the CI binio-smoke job diffs over every checked-in
// benchmark.
//
// exit codes: 0 success, 1 usage/IO/parse error, 2 verification mismatch.

#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/binio.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "util/env.h"
#include "util/log.h"
#include "util/timer.h"

using namespace contango;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: contango-pack pack <in> <out.cbench>\n"
               "       contango-pack unpack <in> <out.bench>\n"
               "       contango-pack verify <a> [b]\n"
               "       contango-pack info <file.cbench>\n"
               "       contango-pack gen-mega <sinks> <seed> <out.cbench>\n");
  return 1;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Canonical text serialization of any benchmark file; the common currency
/// of every verification (two files are "the same instance" exactly when
/// these bytes match, and benchmark_content_hash hashes these bytes).
std::string canonical_text(const Benchmark& bench) {
  std::ostringstream out;
  write_benchmark(bench, out);
  return out.str();
}

/// Round-trips `bench` through the *other* format in memory and returns
/// the canonical text that comes back out.
std::string round_tripped_text(const Benchmark& bench, bool via_binary) {
  if (via_binary) {
    std::ostringstream binary(std::ios::binary);
    write_cbench(bench, binary);
    const std::string bytes = binary.str();
    return canonical_text(read_cbench(
        reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
        "<memory.cbench>"));
  }
  std::ostringstream text;
  write_benchmark(bench, text);
  std::istringstream in(text.str());
  return canonical_text(read_benchmark(in, "<memory.bench>"));
}

int cmd_convert(const std::string& in_path, const std::string& out_path) {
  Timer load_timer;
  const Benchmark bench = read_benchmark_file(in_path);
  const double load_s = load_timer.seconds();
  Timer save_timer;
  if (ends_with(out_path, kCbenchExtension)) {
    write_cbench_file(bench, out_path);
  } else {
    write_benchmark_file(bench, out_path);
  }
  std::printf("%s -> %s: %zu sinks, %zu obstacles (load %.3f s, write %.3f s)\n",
              in_path.c_str(), out_path.c_str(), bench.sinks.size(),
              bench.obstacle_rects.size(), load_s, save_timer.seconds());
  if (!bench.constraints.trivial()) {
    std::printf("  constraints: %s\n",
                constraints_summary(bench.constraints).c_str());
  }
  return 0;
}

int cmd_verify(const std::vector<std::string>& files) {
  const Benchmark a = read_benchmark_file(files[0]);
  const std::string text_a = canonical_text(a);
  std::string text_b;
  std::string label_b;
  if (files.size() == 2) {
    text_b = canonical_text(read_benchmark_file(files[1]));
    label_b = files[1];
  } else {
    // Single file: prove it survives the *other* encoding unchanged.
    const bool via_binary = !ends_with(files[0], kCbenchExtension);
    text_b = round_tripped_text(a, via_binary);
    label_b = via_binary ? "round-trip via .cbench" : "round-trip via .bench";
  }
  const Hash128 hash = benchmark_content_hash(a);
  if (text_a == text_b) {
    std::printf("OK %s == %s (content hash %s)\n", files[0].c_str(),
                label_b.c_str(), hash.hex().c_str());
    if (!a.constraints.trivial()) {
      std::printf("  constraints: %s\n",
                  constraints_summary(a.constraints).c_str());
    }
    return 0;
  }
  std::fprintf(stderr, "MISMATCH: %s and %s differ in canonical form\n",
               files[0].c_str(), label_b.c_str());
  return 2;
}

int cmd_info(const std::string& path) {
  Timer load_timer;
  const std::vector<unsigned char> bytes = read_file_bytes(path);
  const CbenchTable table = read_cbench_table(bytes.data(), bytes.size(), path);
  const Benchmark bench = read_cbench(bytes.data(), bytes.size(), path);
  std::printf("%s: cbench version %u, %zu bytes (loaded in %.3f s)\n",
              path.c_str(), table.version, bytes.size(), load_timer.seconds());
  std::printf("  name %s: %zu sinks, %zu obstacles, %zu wires, "
              "%zu inverters, %zu corners\n",
              bench.name.c_str(), bench.sinks.size(),
              bench.obstacle_rects.size(), bench.tech.wires.size(),
              bench.tech.inverters.size(), bench.tech.corners.size());
  std::printf("  constraints: %s\n",
              constraints_summary(bench.constraints).c_str());
  std::printf("  %-13s %10s %10s %12s  %s\n", "section", "offset", "records",
              "bytes", "checksum");
  for (const CbenchSection& s : table.sections) {
    std::printf("  %-13s %10llu %10llu %12llu  %016llx\n",
                cbench_section_name(s.id),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.byte_size),
                static_cast<unsigned long long>(s.checksum));
  }
  return 0;
}

int cmd_gen_mega(const std::string& sinks_text, const std::string& seed_text,
                 const std::string& out_path) {
  MegaGenParams params;
  try {
    params.num_sinks = parse_int("sinks", sinks_text);
    params.seed = static_cast<std::uint64_t>(parse_long("seed", seed_text));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gen-mega: %s\n", e.what());
    return 1;
  }
  // Match the scenario registry's instance naming so a generated file and
  // collect_workloads("mega:<n>") hash to the same cache key.
  params.name = "mega_s" + seed_text + "_n" + sinks_text;
  Timer gen_timer;
  write_cbench_file(generate_mega(params), out_path);
  std::printf("wrote %s (%d sinks, seed %s) in %.1f s\n", out_path.c_str(),
              params.num_sinks, seed_text.c_str(), gen_timer.seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    Log::level_from_env();
    if (command == "pack" || command == "unpack") {
      if (args.size() != 2) return usage();
      return cmd_convert(args[0], args[1]);
    }
    if (command == "verify") {
      if (args.size() != 1 && args.size() != 2) return usage();
      return cmd_verify(args);
    }
    if (command == "info") {
      if (args.size() != 1) return usage();
      return cmd_info(args[0]);
    }
    if (command == "gen-mega") {
      if (args.size() != 3) return usage();
      return cmd_gen_mega(args[0], args[1], args[2]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "contango-pack %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
