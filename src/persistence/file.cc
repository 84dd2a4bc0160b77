#include "persistence/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace demon::persistence {

namespace {

/// Gathered writes go out in batches of at most this many parts.
constexpr size_t kPartsPerWrite = 16;

Status OsError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

int OpenFd(const std::string& path, int flags) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags | O_CLOEXEC, 0666);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// Writes every byte of `parts[0, count)` to `fd`, resuming after short
/// writes and `EINTR`.
Status WriteAll(int fd, const std::string_view* parts, size_t count,
                const std::string& path) {
  for (size_t first = 0; first < count; first += kPartsPerWrite) {
    iovec iov[kPartsPerWrite];
    int pending = 0;
    for (size_t i = first; i < count && i < first + kPartsPerWrite; ++i) {
      if (parts[i].empty()) continue;
      iov[pending++] = {const_cast<char*>(parts[i].data()), parts[i].size()};
    }
    iovec* next = iov;
    while (pending > 0) {
      const ssize_t n = ::writev(fd, next, pending);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return OsError("cannot write", path);
      auto written = static_cast<size_t>(n);
      while (pending > 0 && written >= next->iov_len) {
        written -= next->iov_len;
        ++next;
        --pending;
      }
      if (pending > 0) {
        next->iov_base = static_cast<char*>(next->iov_base) + written;
        next->iov_len -= written;
      }
    }
  }
  return Status::OK();
}

Status WriteParts(const std::string& path, const std::string_view* parts,
                  size_t count) {
  const int fd = OpenFd(path, O_WRONLY | O_CREAT | O_TRUNC);
  if (fd < 0) return OsError("cannot open for write", path);
  Status status = WriteAll(fd, parts, count, path);
  if (::close(fd) != 0 && status.ok()) status = OsError("cannot close", path);
  return status;
}

}  // namespace

Status WriteFile(const std::string& path,
                 std::initializer_list<std::string_view> parts) {
  return WriteParts(path, parts.begin(), parts.size());
}

Status WriteFile(const std::string& path,
                 const std::vector<std::string_view>& parts) {
  return WriteParts(path, parts.data(), parts.size());
}

Result<std::string> ReadFile(const std::string& path) {
  DEMON_ASSIGN_OR_RETURN(const File file, File::OpenForRead(path));
  DEMON_ASSIGN_OR_RETURN(const uint64_t size, file.Size());
  std::string bytes(size, '\0');
  DEMON_RETURN_NOT_OK(file.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

void RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    // Best effort by contract: nothing to report.
  }
}

Result<File> File::OpenForRead(const std::string& path) {
  const int fd = OpenFd(path, O_RDONLY);
  if (fd < 0) return OsError("cannot open for read", path);
  return File(fd, path);
}

Result<File> File::OpenForAppend(const std::string& path) {
  const int fd = OpenFd(path, O_RDWR | O_CREAT | O_APPEND);
  if (fd < 0) return OsError("cannot open for append", path);
  return File(fd, path);
}

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> File::Size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return OsError("cannot stat", path_);
  return static_cast<uint64_t>(st.st_size);
}

Status File::ReadAt(uint64_t offset, void* out, size_t size) const {
  auto* dst = static_cast<char*>(out);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd_, dst + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return OsError("cannot read", path_);
    if (n == 0) return Status::DataLoss(path_ + ": unexpected end of file");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status File::Append(std::initializer_list<std::string_view> parts) {
  return WriteAll(fd_, parts.begin(), parts.size(), path_);
}

Status File::Truncate(uint64_t size) {
  int rc = 0;
  do {
    rc = ::ftruncate(fd_, static_cast<off_t>(size));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return OsError("cannot truncate", path_);
  return Status::OK();
}

}  // namespace demon::persistence
