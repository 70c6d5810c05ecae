//===- trace/TraceIO.h - External trace file format -------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader/writer for the external text trace format. The simulator of
/// Sec. 7.1 is "driven by externally-provided disk I/O request traces";
/// this module makes traces first-class artifacts that can be dumped,
/// inspected, edited, and re-simulated (see examples/trace_tools.cpp).
///
/// Format (one request per line after the header):
/// \code
///   # dra-trace v1
///   procs 4
///   blockbytes 4096
///   nreq 2
///   0.000 1024 32768 R 0 0.800 0
///   6.971 2048 32768 W 1 0.800 0
/// \endcode
/// Columns: arrival-ms, start-block, size-bytes, R/W, proc, think-ms, phase.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_TRACE_TRACEIO_H
#define DRA_TRACE_TRACEIO_H

#include "trace/Trace.h"

#include <optional>
#include <string>

namespace dra {

/// Serializes \p T to \p Path. Returns false on I/O failure.
bool writeTraceFile(const Trace &T, const std::string &Path);

/// Parses a trace from \p Path. Returns std::nullopt on I/O or parse
/// failure (malformed header, short file, bad request line) and on a
/// trace replay cannot run: a non-finite or negative arrival or think
/// time, or a processor whose phase decreases in file order.
std::optional<Trace> readTraceFile(const std::string &Path);

} // namespace dra

#endif // DRA_TRACE_TRACEIO_H
