// Crash-safe filesystem helpers.
//
// WriteFileAtomic gives all-or-nothing file replacement: readers (and a
// process restarted after a crash) observe either the complete previous
// contents or the complete new contents, never a torn prefix. The
// mechanism is the classic temp-file dance — write to `<path>.tmp.<pid>`
// in the same directory, fsync the file, rename(2) over the target, then
// fsync the directory so the rename itself survives a power cut.
//
// Every durable artifact the project emits (binary graphs, checkpoints,
// bench JSON, trace/metrics exports, solution CSVs) routes through this
// call; see ROBUSTNESS.md.

#ifndef PREFCOVER_UTIL_FS_H_
#define PREFCOVER_UTIL_FS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "util/status.h"

namespace prefcover {

/// \brief Atomically replaces `path` with `contents`.
///
/// On any failure the target is left untouched and the temp file is
/// removed. The rename is atomic only within one filesystem, which the
/// same-directory temp file guarantees.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// \brief Streaming variant: `writer` produces the contents into an
/// ostream (e.g. a CSV writer). The payload is staged in memory, then
/// committed via the string overload — callers trade peak memory for the
/// atomicity guarantee.
Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer);

/// \brief Reads a whole file into a string (binary, no translation) with
/// one buffer sized from fstat and a read(2) loop. A missing file or a
/// directory is an IOError.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `size` bytes.
/// Chainable: pass a previous digest as `seed` to extend it.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_FS_H_
