#include "persistence/wal.h"

#include <utility>

#include "persistence/file_header.h"

namespace demon::persistence {

namespace {

constexpr uint32_t kWalVersion = 1;

enum class RecordKind : uint8_t {
  kTransactions = 1,
  kPoints = 2,
  kLabeled = 3,
};

/// Bytes framing a record before its payload: kind then payload length.
constexpr size_t kRecordPrefixBytes = sizeof(uint8_t) + sizeof(uint64_t);

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Scans the records in `r` (the log past its header). Durable records are
/// handed to `on_record` (may be null) as a reader over their payload; a
/// torn tail is *not* an error — scanning stops and `torn_bytes` counts the
/// bytes after the last durable record.
Status ScanRecords(
    Reader r, const std::string& path,
    const std::function<Status(RecordKind, Reader&)>& on_record,
    size_t* torn_bytes, size_t* num_records) {
  *num_records = 0;
  for (;;) {
    *torn_bytes = r.remaining();
    if (r.remaining() < kRecordPrefixBytes) {
      return Status::OK();  // clean EOF or torn length prefix
    }
    const uint8_t kind = r.ReadU8();
    const uint64_t payload_bytes = r.ReadU64();
    if (kind < static_cast<uint8_t>(RecordKind::kTransactions) ||
        kind > static_cast<uint8_t>(RecordKind::kLabeled)) {
      return Status::DataLoss(path + ": WAL record with unknown payload kind " +
                              std::to_string(kind));
    }
    // A length pointing past EOF is either a torn length field or garbage.
    // Compared without adding to it, so a hostile length cannot wrap.
    if (r.remaining() < sizeof(uint64_t) ||
        payload_bytes > r.remaining() - sizeof(uint64_t)) {
      return Status::OK();  // torn tail record
    }
    const std::string_view payload = r.ReadBytes(payload_bytes);
    if (r.ReadU64() != Fnv1a(payload)) {
      return Status::DataLoss(path + ": WAL record " +
                              std::to_string(*num_records) +
                              " fails its checksum");
    }
    if (on_record != nullptr) {
      Reader record(payload.data(), payload.size());
      DEMON_RETURN_NOT_OK(on_record(static_cast<RecordKind>(kind), record));
    }
    ++*num_records;
  }
}

/// Decodes one replayed record's block and hands it to `sink`.
template <typename BlockT>
Status Deliver(Reader& r,
               const std::function<Status(std::shared_ptr<const BlockT>)>& sink,
               const std::string& path, const char* what) {
  auto block = std::make_shared<BlockT>();
  ReadBlockInto(r, block.get());
  if (!r.ok()) return r.status();
  if (!r.AtEnd()) {
    return Status::DataLoss(path + ": WAL record payload has trailing bytes");
  }
  if (sink == nullptr) {
    return Status::InvalidArgument(path + ": WAL holds " + what +
                                   " blocks but the replayer accepts none");
  }
  return sink(std::move(block));
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  DEMON_ASSIGN_OR_RETURN(File file, File::OpenForAppend(path));
  DEMON_ASSIGN_OR_RETURN(const uint64_t size, file.Size());
  size_t num_records = 0;
  if (size == 0) {
    Writer header;
    FileHeader::Append(header, FormatId::kWriteAheadLog, kWalVersion);
    DEMON_RETURN_NOT_OK(file.Append({header.buffer()}));
  } else {
    std::string bytes(size, '\0');
    DEMON_RETURN_NOT_OK(file.ReadAt(0, bytes.data(), bytes.size()));
    Reader r(bytes);
    DEMON_RETURN_NOT_OK(
        FileHeader::Consume(r, FormatId::kWriteAheadLog, kWalVersion, path)
            .status());
    size_t torn_bytes = 0;
    DEMON_RETURN_NOT_OK(
        ScanRecords(r, path, nullptr, &torn_bytes, &num_records));
    // Drop the torn tail left by a crash mid-append.
    if (torn_bytes > 0) DEMON_RETURN_NOT_OK(file.Truncate(size - torn_bytes));
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(file), num_records));
}

Status WriteAheadLog::AppendRecord(uint8_t kind, const Writer& payload) {
  Writer prefix;
  prefix.WriteU8(kind);
  prefix.WriteU64(payload.size());
  Writer checksum;
  checksum.WriteU64(Fnv1a(payload.buffer()));
  DEMON_RETURN_NOT_OK(
      file_.Append({prefix.buffer(), payload.buffer(), checksum.buffer()}));
  ++num_records_;
  return Status::OK();
}

Status WriteAheadLog::Append(const TransactionBlock& block) {
  Writer payload;
  WriteBlock(payload, block);
  return AppendRecord(static_cast<uint8_t>(RecordKind::kTransactions),
                      payload);
}

Status WriteAheadLog::Append(const PointBlock& block) {
  Writer payload;
  WriteBlock(payload, block);
  return AppendRecord(static_cast<uint8_t>(RecordKind::kPoints), payload);
}

Status WriteAheadLog::Append(const LabeledBlock& block) {
  Writer payload;
  WriteBlock(payload, block);
  return AppendRecord(static_cast<uint8_t>(RecordKind::kLabeled), payload);
}

Status WriteAheadLog::Replay(const std::string& path,
                             const Replayer& replayer) {
  DEMON_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
  Reader log(bytes);
  DEMON_RETURN_NOT_OK(
      FileHeader::Consume(log, FormatId::kWriteAheadLog, kWalVersion, path)
          .status());
  const auto decode = [&path, &replayer](RecordKind kind, Reader& r) {
    switch (kind) {
      case RecordKind::kTransactions:
        return Deliver(r, replayer.transactions, path, "transaction");
      case RecordKind::kPoints:
        return Deliver(r, replayer.points, path, "point");
      case RecordKind::kLabeled:
        return Deliver(r, replayer.labeled, path, "labeled");
    }
    return Status::DataLoss(path + ": WAL record of unknown kind");
  };
  size_t torn_bytes = 0;
  size_t num_records = 0;
  return ScanRecords(log, path, decode, &torn_bytes, &num_records);
}

Status WriteAheadLog::Reset() {
  DEMON_RETURN_NOT_OK(file_.Truncate(FileHeader::kBytes));
  num_records_ = 0;
  return Status::OK();
}

}  // namespace demon::persistence
