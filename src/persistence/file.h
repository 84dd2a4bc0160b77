#ifndef DEMON_PERSISTENCE_FILE_H_
#define DEMON_PERSISTENCE_FILE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace demon::persistence {

/// The one place DEMON opens, writes and reads file contents. Short
/// writes and reads, `EINTR`, and mapping `errno` to a `Status` are
/// handled here: an open, read, write or close failure is `IoError`
/// naming the path and the OS error; a read that stops before the end of
/// the bytes the caller asked for is `DataLoss`. Nothing is fsynced: the
/// bytes reach the OS when a call returns, which survives the process
/// being killed but not a power loss.

/// Writes `parts` back to back to `path`, creating or truncating it in
/// place. The parts go out as one gathered write, so a caller never
/// concatenates a header and its payload. For atomic replacement see
/// `WritePayloadFile` (tmp + rename).
[[nodiscard]] Status WriteFile(const std::string& path,
                               std::initializer_list<std::string_view> parts);
[[nodiscard]] Status WriteFile(const std::string& path,
                               const std::vector<std::string_view>& parts);

/// Reads the whole of `path`.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path);

/// Deletes `path`, best effort: callers use it where the file may
/// legitimately be gone, or on a failure path that already has a status.
void RemoveFile(const std::string& path);

/// \brief An open file, closed on destruction, for the users that need
/// more than whole-file access: the WAL (append and truncate), the
/// indexed TID-list reader and the pager's fault-in (positioned reads).
class File {
 public:
  /// Opens an existing file for positioned reads.
  [[nodiscard]] static Result<File> OpenForRead(const std::string& path);
  /// Opens `path` for positioned reads and appends, creating it empty
  /// when missing.
  [[nodiscard]] static Result<File> OpenForAppend(const std::string& path);

  File(File&& other) noexcept;
  ~File();

  [[nodiscard]] Result<uint64_t> Size() const;

  /// Reads exactly `size` bytes at `offset` into `out`.
  [[nodiscard]] Status ReadAt(uint64_t offset, void* out, size_t size) const;

  /// Appends `parts` at the end of the file in one gathered write.
  [[nodiscard]] Status Append(std::initializer_list<std::string_view> parts);

  /// Cuts the file to `size` bytes; later appends land after them.
  [[nodiscard]] Status Truncate(uint64_t size);

  const std::string& path() const { return path_; }

 private:
  File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace demon::persistence

#endif  // DEMON_PERSISTENCE_FILE_H_
