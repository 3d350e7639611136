#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace contango {

/// \file mmap.h
/// \brief Read-only file mapping.
///
/// The out-of-core netlist loader (netlist/binio.h) wants the bytes of a
/// `.cbench` file without copying them: a 1M-sink sink section is ~24 MB of
/// fixed-stride doubles that the loader hands out as zero-copy typed views,
/// so the OS page cache — not a heap buffer — is the working set.  MappedFile
/// wraps `mmap(PROT_READ, MAP_PRIVATE)` behind an RAII handle.  Only
/// regular files are accepted: a pipe or other non-seekable input is
/// rejected up front.

/// Read-only bytes of one file, backed by an mmap mapping (or, for
/// from_bytes(), an owned heap buffer).  Move-only; the mapping is
/// released on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// \brief Maps `path` read-only.
  /// \throws std::runtime_error when the file cannot be opened or mapped,
  ///         or is not a regular file
  static MappedFile open(const std::string& path);

  /// Wraps an in-memory byte buffer — no file involved.  Used for
  /// in-memory round-trip verification and by the corruption tests, which
  /// mutate a valid image byte-by-byte without touching disk.
  static MappedFile from_bytes(std::vector<unsigned char> bytes);

  /// First byte of the file, or nullptr for an empty file.
  const unsigned char* data() const { return data_; }

  std::size_t size() const { return size_; }

  /// True when backed by an actual mmap mapping (false for from_bytes()
  /// and for empty files).
  bool mapped() const { return mapped_; }

 private:
  void release();

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<unsigned char> buffer_;  ///< owns the bytes of from_bytes()
};

}  // namespace contango
