#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/benchmark.h"
#include "util/hash.h"

namespace contango {

/// \file io.h
/// \brief On-disk benchmark I/O: the `.bench` plain-text format.
///
/// The format carries the full information content of the ISPD'09 CNS
/// contest inputs (die, clock source, sinks, blockages, wire widths,
/// inverter library, supply corners, design limits) while staying trivially
/// parseable and diffable: one directive per line, `#` starts a comment,
/// blank lines are ignored, directives may appear in any order.
///
///     units um ps fF kohm
///     name <string>
///     die <xlo> <ylo> <xhi> <yhi>
///     source <x> <y>
///     source_res <kohm>
///     slew_limit <ps>
///     cap_limit <fF>
///     corners <vdd0> <vdd1> ...
///     supply_alpha <a>
///     rise_fall_ratio <r>
///     wire <name> <kohm_per_um> <ff_per_um>
///     inverter <name> <cin_ff> <cout_ff> <rout_kohm> <intrinsic_ps>
///     sinks <count>            # optional declaration, checked at EOF
///     sink <name> <x> <y> <cap_ff>
///     obstacles <count>        # optional declaration, checked at EOF
///     obstacle <xlo> <ylo> <xhi> <yhi>
///
/// The `units` directive is optional but, when present, must name exactly
/// the canonical unit system (`um ps fF kohm`) — files in any other unit
/// system are rejected rather than silently misscaled.  The `sinks` /
/// `obstacles` count declarations are optional; when present the parser
/// verifies the actual list length at end of file, which catches truncated
/// files.  Names (benchmark, wire, inverter, sink) are single tokens;
/// fields are separated by whitespace, each number is a whole field in
/// decimal notation (read correctly rounded; overflow, `nan`, `inf` and
/// hex are rejected, except that `sink_window` bounds may be `-inf`/`inf`),
/// and trailing fields after a directive's expected ones are rejected.  Every
/// syntax error is reported as a BenchmarkParseError carrying the 1-based
/// line number and the input name.
///
/// See docs/BENCHMARK_FORMAT.md for the full specification and a worked
/// example.

/// \brief Parse failure in a `.bench` input, with source position.
///
/// what() reads like `cns01.bench:17: malformed obstacle: ...`.  Derives
/// from std::runtime_error so callers that only care about failure can
/// catch the base type.
class BenchmarkParseError : public std::runtime_error {
 public:
  /// \param context input name used in the message (file path or "<stream>")
  /// \param line 1-based line number of the offending directive
  /// \param message description of the failure
  BenchmarkParseError(const std::string& context, std::size_t line,
                      const std::string& message)
      : std::runtime_error(context + ":" + std::to_string(line) + ": " + message),
        line_(line) {}

  /// Position-less variant for formats without line structure (the binary
  /// `.cbench` reader names the offending section in `message` instead);
  /// line() reports 0.
  BenchmarkParseError(const std::string& context, const std::string& message)
      : std::runtime_error(context + ": " + message), line_(0) {}

  /// 1-based line number the error was detected on (0 for binary inputs).
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// \brief Reads one benchmark from a stream of `.bench` directives.
/// \param in the input stream; read to EOF
/// \param context name used in error messages (file path or similar)
/// \return the parsed benchmark, already validated via validate()
/// \throws BenchmarkParseError on any syntax error (with line number)
/// \throws std::invalid_argument when the file parses but describes an
///         inconsistent benchmark (sink outside die, empty technology, ...)
Benchmark read_benchmark(std::istream& in, const std::string& context = "<stream>");

/// \brief Reads one benchmark file on disk, dispatching on the extension:
/// paths ending in `.cbench` load through the binary reader
/// (netlist/binio.h), everything else parses as `.bench` text.
/// \throws std::runtime_error when the file cannot be opened; otherwise as
///         read_benchmark() / read_cbench_file() with the path as context
Benchmark read_benchmark_file(const std::string& path);

/// \brief Lists the `.bench` and `.cbench` files directly inside a
/// directory (a directory may mix both formats).
/// \return absolute-or-relative paths as given, sorted by filename so suite
///         order is stable across platforms and directory iteration orders
/// \throws std::runtime_error when the directory cannot be read
std::vector<std::string> list_benchmark_files(const std::string& dir);

/// \brief Writes a benchmark in `.bench` format.
///
/// The output is deterministic and complete: writing a benchmark, reading
/// it back and writing it again produces byte-identical text (doubles are
/// printed as `%.17g`, which round-trips; the stream's own format flags
/// play no part).  `units` and the `sinks`/`obstacles`
/// count declarations are always emitted.
/// \throws std::invalid_argument when check_writable rejects the benchmark,
///         before anything is written
void write_benchmark(const Benchmark& bench, std::ostream& out);

/// \brief Writes a benchmark to a `.bench` file on disk.
/// \throws std::invalid_argument when check_writable rejects the benchmark;
///         the path is then neither created nor truncated
/// \throws std::runtime_error when the file cannot be created
void write_benchmark_file(const Benchmark& bench, const std::string& path);

/// \brief Checks that a benchmark can be written and read back: every name
/// is a single plain token (non-empty, no whitespace, no `#`), there is at
/// least one supply corner, and validate() passes.  Both writers
/// (write_benchmark, write_cbench and their file variants) run it before
/// they emit a byte or open a file.
/// \throws std::invalid_argument naming the offending field and value
void check_writable(const Benchmark& bench);

/// \brief Stable 128-bit content hash of a benchmark (util/hash.h).
///
/// The digest is FNV-1a-128 streamed over the canonical `.bench`
/// serialization (write_benchmark) without materializing the text, so it
/// is platform-portable, identical for a generated scenario and its
/// exported-then-reparsed file — in either format, since `.cbench` stores
/// the exact same doubles — and changes whenever any information content
/// of the benchmark changes.  Suite reports carry it per run as
/// `benchmark_hash`, and the service layer folds it into result-cache
/// keys, which is why a binary submission hits the cache entry a text
/// submission created.
/// \throws std::invalid_argument when check_writable rejects the benchmark
Hash128 benchmark_content_hash(const Benchmark& bench);

}  // namespace contango
