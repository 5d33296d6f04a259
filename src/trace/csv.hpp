// CSV persistence for traces, so field data can be exported for offline
// analysis and external traces can be replayed through the VN2 pipeline in
// place of a live simulation.
//
// Trace format (one row per snapshot):
//   node,epoch,time,<43 metric columns by schema name>
//
// The round trip is exact. Node and epoch are written as integers and every
// double as printf's "%.17g" (the text an ostream at precision 17 prints),
// so reading a written trace gives back every epoch, time and value bit for
// bit.
//
// The reader is strict. The header must have 3 + 43 columns, and so must
// every row. Each field must parse whole with std::from_chars: node as a
// 16-bit NodeId, epoch as an unsigned 64-bit integer, and every other field
// as a finite double. So "1.5abc", " 0x10", "nan", "inf", node 70000 and
// epoch -1 are all rejected. One trailing '\r' per line is dropped, so
// CRLF files read; blank lines are skipped. A rejection throws
// std::runtime_error naming the 1-based line and column.
//
// Both directions stream in blocks of kCsvBlockBytes. The writer flushes
// each block with one ostream::write; the reader carries a line cut by a
// block boundary over to the next block, so it never holds the whole file.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace vn2::trace {

/// The block size the codec reads and writes in.
inline constexpr std::size_t kCsvBlockBytes = std::size_t{1} << 20;

/// Writes a trace as CSV (with a header row).
void write_trace_csv(std::ostream& os, const Trace& trace);
/// Throws std::runtime_error if the file cannot be opened or written.
void write_trace_csv_file(const std::string& path, const Trace& trace);

/// Reads a trace written by write_trace_csv. Throws std::runtime_error on an
/// empty input, a malformed header or a malformed row.
Trace read_trace_csv(std::istream& is);
Trace read_trace_csv_file(const std::string& path);

}  // namespace vn2::trace
