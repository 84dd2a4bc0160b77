#ifndef DEMON_PERSISTENCE_WAL_H_
#define DEMON_PERSISTENCE_WAL_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "data/block.h"
#include "dtree/labeled_block.h"
#include "persistence/block_codec.h"
#include "persistence/file.h"

namespace demon::persistence {

/// \brief Append-only block-arrival log. Every block fed to a monitored
/// database is appended (and handed to the OS) here *after* it is assigned
/// its id, so that after a crash the blocks that arrived since the last
/// checkpoint can be replayed in arrival order and the maintained models
/// converge to the exact state of an uninterrupted run.
///
/// Layout: a `FileHeader` (format `kWriteAheadLog`) followed by records
///   [u8 payload kind][u64 payload bytes][payload][u64 FNV-1a checksum]
/// A record is durable iff it is complete and its checksum matches. A
/// truncated record at the tail is the signature of a crash mid-append:
/// `Open` silently drops it (the arrival was never acknowledged), while a
/// complete record with a bad checksum is genuine corruption and surfaces
/// as `DataLoss`.
class WriteAheadLog {
 public:
  /// Callbacks receiving replayed blocks in arrival order. Each returns a
  /// Status so the caller can abort replay on its own errors.
  struct Replayer {
    std::function<Status(std::shared_ptr<const TransactionBlock>)>
        transactions;
    std::function<Status(std::shared_ptr<const PointBlock>)> points;
    std::function<Status(std::shared_ptr<const LabeledBlock>)> labeled;
  };

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens `path` for appending, creating it (with a fresh header) when
  /// missing or empty. An existing log is scanned: durable records are
  /// counted, a torn tail record is truncated away, and corruption returns
  /// `DataLoss` / wrong-format input returns `InvalidArgument`.
  [[nodiscard]] static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path);

  /// Appends one block arrival and hands it to the OS in one write. The
  /// block must already carry its assigned id.
  [[nodiscard]] Status Append(const TransactionBlock& block);
  [[nodiscard]] Status Append(const PointBlock& block);
  [[nodiscard]] Status Append(const LabeledBlock& block);

  /// Replays every durable record of the log at `path` in order. A torn
  /// tail record is skipped (crash signature); corrupt durable records
  /// yield `DataLoss`.
  [[nodiscard]] static Status Replay(const std::string& path,
                                     const Replayer& replayer);

  /// Discards all records, leaving an empty log (used when rotating the
  /// log after a checkpoint).
  [[nodiscard]] Status Reset();

  /// Durable records currently in the log (scanned at Open, bumped on
  /// Append).
  size_t num_records() const { return num_records_; }

  const std::string& path() const { return file_.path(); }

 private:
  WriteAheadLog(File file, size_t num_records)
      : file_(std::move(file)), num_records_(num_records) {}

  [[nodiscard]] Status AppendRecord(uint8_t kind, const Writer& payload);

  File file_;
  size_t num_records_ = 0;
};

}  // namespace demon::persistence

#endif  // DEMON_PERSISTENCE_WAL_H_
