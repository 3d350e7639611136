#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace contango {

/// \file mmap.h
/// \brief Read-only file mapping with a buffered-read fallback.
///
/// The out-of-core netlist loader (netlist/binio.h) wants the bytes of a
/// `.cbench` file without copying them: a 1M-sink sink section is ~24 MB of
/// fixed-stride doubles that the loader hands out as zero-copy typed views,
/// so the OS page cache — not a heap buffer — is the working set.  MappedFile
/// wraps `mmap(PROT_READ, MAP_PRIVATE)` behind an RAII handle.
///
/// The CONTANGO_MMAP env knob (default 1) selects the backend: `0` forces
/// the buffered-read fallback, which loads the whole file into an owned
/// heap buffer through plain stream reads.  Both backends expose identical
/// bytes, so every consumer is bit-identical either way — the knob exists
/// for A/B timing runs and for filesystems where mmap misbehaves.

/// True when the mmap backend is enabled: CONTANGO_MMAP unset or non-zero.
/// Read per call so tests can flip the knob inside one process.
bool mmap_io_enabled();

/// Read-only bytes of one file, backed by either an mmap mapping or an
/// owned heap buffer.  Move-only; the mapping is released on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// \brief Opens `path` read-only via the backend the CONTANGO_MMAP knob
  /// selects (mmap by default, buffered reads when the knob is 0).
  /// \throws std::runtime_error when the file cannot be opened or mapped
  static MappedFile open(const std::string& path);

  /// Forces the mmap backend regardless of the knob.
  static MappedFile open_mapped(const std::string& path);

  /// Forces the buffered-read backend regardless of the knob.
  static MappedFile open_buffered(const std::string& path);

  /// Wraps an in-memory byte buffer — no file involved.  Used for
  /// in-memory round-trip verification and by the corruption tests, which
  /// mutate a valid image byte-by-byte without touching disk.
  static MappedFile from_bytes(std::vector<unsigned char> bytes);

  /// First byte of the file, or nullptr for an empty file.
  const unsigned char* data() const { return data_; }

  std::size_t size() const { return size_; }

  /// True when backed by an actual mmap mapping (false for the buffered
  /// fallback and for empty files).
  bool mapped() const { return mapped_; }

 private:
  void release();

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<unsigned char> buffer_;  ///< owns the bytes in buffered mode
};

}  // namespace contango
