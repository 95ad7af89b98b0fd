#include "util/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/failpoint.h"

namespace prefcover {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

// Parent directory of `path` ("." for a bare filename).
std::string DirName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  // Some filesystems refuse to open or fsync directories; the rename is
  // already on its way to disk, so treat that as best-effort.
  if (fd < 0) return Status::OK();
  ::fsync(fd);
  ::close(fd);
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  PREFCOVER_FAILPOINT_STATUS("fs.write_atomic");
  const std::string temp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot create temp file", temp));
  }
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written,
                        contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::IOError(ErrnoMessage("write failed", temp));
      ::close(fd);
      ::unlink(temp.c_str());
      return st;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IOError(ErrnoMessage("fsync failed", temp));
    ::close(fd);
    ::unlink(temp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    Status st = Status::IOError(ErrnoMessage("close failed", temp));
    ::unlink(temp.c_str());
    return st;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    Status st = Status::IOError(ErrnoMessage("rename failed", path));
    ::unlink(temp.c_str());
    return st;
  }
  return SyncDirectory(DirName(path));
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  std::ostringstream staging(std::ios::binary);
  PREFCOVER_RETURN_NOT_OK(writer(&staging));
  if (!staging.good()) {
    return Status::IOError("staging stream failed for '" + path + "'");
  }
  return WriteFileAtomic(path, staging.str());
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open for reading", path));
  }
  // One byte past the fstat size, so a regular file arrives in one read
  // and the next returns EOF; anything longer (a growing file, a pipe)
  // doubles the buffer.
  struct stat st;
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string data(sized ? static_cast<size_t>(st.st_size) + 1 : 4096, '\0');
  size_t filled = 0;
  for (;;) {
    if (filled == data.size()) data.resize(2 * data.size());
    const ssize_t got = ::read(fd, data.data() + filled, data.size() - filled);
    if (got < 0) {
      if (errno == EINTR) continue;
      // A directory opens fine and fails here with EISDIR.
      Status error = Status::IOError(ErrnoMessage("read failed", path));
      ::close(fd);
      return error;
    }
    if (got == 0) break;
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  data.resize(filled);
  return data;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  // Slicing-by-8 tables, generated once, on first use, from the reflected
  // polynomial: kTables[0] is the bytewise table, and kTables[k][b] is
  // the CRC of byte b followed by k zero bytes, so one step folds eight
  // input bytes through eight independent lookups.
  static const std::array<std::array<uint32_t, 256>, 8> kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> tables{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      tables[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  const auto& t = kTables;
  // Little-endian 32-bit load, whatever the host's byte order.
  auto load32 = [](const unsigned char* b) {
    return uint32_t{b[0]} | uint32_t{b[1]} << 8 | uint32_t{b[2]} << 16 |
           uint32_t{b[3]} << 24;
  };
  uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; size -= 8, p += 8) {
    const uint32_t lo = crc ^ load32(p);
    const uint32_t hi = load32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace prefcover
