//===- support/FileIO.h - Whole-file read and write -------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one whole-file reader and writer of the library, the tools and the
/// benches. Both check every step (open, each read or write, the stream
/// error flag and the close), so a truncated or unflushed file is never
/// reported as success. Callers keep their own diagnostic text. Only the
/// line-oriented dra-trace format (trace/TraceIO.h) streams on its own.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_FILEIO_H
#define DRA_SUPPORT_FILEIO_H

#include <optional>
#include <string>
#include <string_view>

namespace dra {

/// The whole content of \p Path, or nullopt when the file cannot be opened,
/// a read fails (e.g. \p Path is a directory) or closing it fails.
std::optional<std::string> readFile(const std::string &Path);

/// Outcome of writeFile; converts to true only when every byte reached the
/// file and it closed cleanly.
struct WriteResult {
  /// The file could be created or truncated.
  bool Opened = false;
  /// Opened, every byte written, and the close (final flush) succeeded.
  bool Ok = false;
  explicit operator bool() const { return Ok; }
};

/// Replaces the content of \p Path with \p Data.
WriteResult writeFile(const std::string &Path, std::string_view Data);

} // namespace dra

#endif // DRA_SUPPORT_FILEIO_H
