#include "persistence/file_header.h"

#include <cstdio>

#include "persistence/file.h"

namespace demon::persistence {

namespace {

std::string DescribeFormat(uint32_t id) {
  const std::string name = FormatIdToString(static_cast<FormatId>(id));
  return name != "unknown" ? name : "format#" + std::to_string(id);
}

}  // namespace

const char* FormatIdToString(FormatId id) {
  switch (id) {
    case FormatId::kTransactionFile:
      return "transaction-file";
    case FormatId::kTidListBlock:
      return "tidlist-block";
    case FormatId::kTidListIndexed:
      return "tidlist-indexed";
    case FormatId::kItemsetModel:
      return "itemset-model";
    case FormatId::kCheckpoint:
      return "checkpoint";
    case FormatId::kWriteAheadLog:
      return "write-ahead-log";
    case FormatId::kWireRequest:
      return "wire-request";
    case FormatId::kWireResponse:
      return "wire-response";
  }
  return "unknown";
}

void FileHeader::Append(Writer& w, FormatId format, uint32_t version) {
  w.WriteU64(kMagic);
  w.WriteU32(static_cast<uint32_t>(format));
  w.WriteU32(version);
  w.WriteU64(0);  // flags
}

Result<FileHeader> FileHeader::Consume(Reader& r, FormatId expected,
                                       uint32_t max_version,
                                       const std::string& context) {
  if (r.remaining() < kBytes) {
    return Status::DataLoss(context + ": input too short for a DEMON header");
  }
  FileHeader header;
  header.magic = r.ReadU64();
  header.format_id = r.ReadU32();
  header.version = r.ReadU32();
  header.flags = r.ReadU64();
  if (header.magic != kMagic) {
    return Status::InvalidArgument(context + ": not a DEMON file (bad magic)");
  }
  if (header.format_id != static_cast<uint32_t>(expected)) {
    return Status::InvalidArgument(
        context + ": expected a " + FormatIdToString(expected) +
        " file, found " + DescribeFormat(header.format_id));
  }
  if (header.version == 0 || header.version > max_version) {
    return Status::InvalidArgument(
        context + ": " + FormatIdToString(expected) + " version " +
        std::to_string(header.version) + " unsupported (reader handles 1.." +
        std::to_string(max_version) + ")");
  }
  return header;
}

Status WritePayloadFile(const std::string& path, FormatId format,
                        uint32_t version, const Writer& payload) {
  return WritePayloadFile(path, format, version, {payload.buffer()});
}

Status WritePayloadFile(const std::string& path, FormatId format,
                        uint32_t version,
                        const std::vector<std::string_view>& payload_parts) {
  Writer header;
  FileHeader::Append(header, format, version);
  std::vector<std::string_view> parts;
  parts.reserve(payload_parts.size() + 1);
  parts.push_back(header.buffer());
  parts.insert(parts.end(), payload_parts.begin(), payload_parts.end());
  const std::string tmp = path + ".tmp";
  Status status = WriteFile(tmp, parts);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + tmp + " over " + path);
  }
  if (!status.ok()) RemoveFile(tmp);
  return status;
}

Result<std::string> ReadPayloadFile(const std::string& path, FormatId format,
                                    uint32_t max_version,
                                    uint32_t* version_out) {
  DEMON_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  Reader r(bytes);
  DEMON_ASSIGN_OR_RETURN(const FileHeader header,
                         FileHeader::Consume(r, format, max_version, path));
  if (version_out != nullptr) *version_out = header.version;
  bytes.erase(0, FileHeader::kBytes);  // in place: no second payload buffer
  return bytes;
}

}  // namespace demon::persistence
