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
  // Table generated once, on first use, from the reflected polynomial.
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace prefcover
