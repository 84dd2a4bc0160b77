#ifndef DEMON_PERSISTENCE_FILE_HEADER_H_
#define DEMON_PERSISTENCE_FILE_HEADER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "persistence/serializer.h"

namespace demon::persistence {

/// Shared magic number opening every DEMON on-disk file ("DEMONFS1").
/// The format id distinguishes what follows; the per-format version gates
/// layout evolution. A reader that sees the wrong magic or format id is
/// looking at the wrong kind of file (`InvalidArgument`); one that sees a
/// newer version than it supports must refuse rather than misparse
/// (`InvalidArgument`); a header that cannot be read in full is truncation
/// (`DataLoss`).
inline constexpr uint64_t kMagic = 0x44454d4f4e465331ULL;  // "DEMONFS1"

/// Identifies the layout of the bytes following the header. Values are
/// stable on disk; never renumber.
enum class FormatId : uint32_t {
  kTransactionFile = 1,  ///< data/transaction_file: block stream
  kTidListBlock = 2,     ///< retired (BlockTidLists bulk dump); id reserved
  kTidListIndexed = 3,   ///< tidlist: random-access TID-list layout
  kItemsetModel = 4,     ///< itemsets/model_io: serialized ItemsetModel
  kCheckpoint = 5,       ///< core: DemonMonitor checkpoint container
  kWriteAheadLog = 6,    ///< core: block-arrival write-ahead log
  kWireRequest = 7,      ///< server: one request frame on the wire
  kWireResponse = 8,     ///< server: one response frame on the wire
};

/// Short stable name for error messages ("transaction-file", "checkpoint"...).
const char* FormatIdToString(FormatId id);

/// \brief The fixed 24-byte preamble of every DEMON file: magic, format id,
/// version, flags. `flags` is reserved (must be zero when written today) so
/// future formats can signal optional features without a version bump.
struct FileHeader {
  static constexpr size_t kBytes = 24;

  uint64_t magic = kMagic;
  uint32_t format_id = 0;
  uint32_t version = 0;
  uint64_t flags = 0;

  /// Appends a header for `format` at `version` (no flags).
  static void Append(Writer& w, FormatId format, uint32_t version);

  /// Reads and validates a header: wrong magic / wrong format id / version
  /// newer than `max_version` yield `InvalidArgument`; fewer than `kBytes`
  /// bytes yield `DataLoss`. `context` names the input in error messages.
  [[nodiscard]] static Result<FileHeader> Consume(Reader& r, FormatId expected,
                                                  uint32_t max_version,
                                                  const std::string& context);
};

/// Writes `header ++ payload` to `path` atomically: the bytes go to
/// `path + ".tmp"` (one `WriteFile`) and are renamed over `path` only
/// after a clean close, so a crash mid-write can never leave a torn file
/// under the real name (the reader either sees the old file or the
/// complete new one).
[[nodiscard]] Status WritePayloadFile(const std::string& path, FormatId format,
                                      uint32_t version, const Writer& payload);

/// The same with the payload given as parts written back to back, so a
/// caller whose payload is made of separately built sections (the
/// checkpoint's framed maintainer states) never copies them into one
/// buffer.
[[nodiscard]] Status WritePayloadFile(
    const std::string& path, FormatId format, uint32_t version,
    const std::vector<std::string_view>& payload_parts);

/// Reads a file written by `WritePayloadFile`: validates the header (same
/// status contract as `FileHeader::Consume`) and returns the payload bytes.
/// `version_out` (optional) receives the file's actual format version, for
/// formats whose payload layout evolved (e.g. checkpoint v1 → v2).
[[nodiscard]] Result<std::string> ReadPayloadFile(
    const std::string& path, FormatId format, uint32_t max_version,
    uint32_t* version_out = nullptr);

}  // namespace demon::persistence

#endif  // DEMON_PERSISTENCE_FILE_HEADER_H_
