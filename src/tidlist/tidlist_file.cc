#include "tidlist/tidlist_file.h"

#include <algorithm>

#include "common/check.h"
#include "persistence/file_header.h"

namespace demon {

namespace {

constexpr uint32_t kTidListIndexedVersion = 1;

bool WriteU64(std::FILE* f, uint64_t v) {
  return std::fwrite(&v, sizeof(v), 1, f) == 1;
}

bool ReadU64(std::FILE* f, uint64_t* v) {
  return std::fread(v, sizeof(*v), 1, f) == 1;
}

}  // namespace

Status TidListFile::Write(const BlockTidLists& lists,
                          const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);

  const size_t num_items = lists.num_items();
  auto pairs = lists.MaterializedPairs();
  // MaterializedPairs comes back in hash order; sort for a deterministic
  // file image.
  std::sort(pairs.begin(), pairs.end());

  persistence::FileHeader file_header;
  file_header.format_id =
      static_cast<uint32_t>(persistence::FormatId::kTidListIndexed);
  file_header.version = kTidListIndexedVersion;
  Status header_status = file_header.WriteTo(f);

  // Fixed-size counts: num_transactions, num_items, num_pairs. List
  // lengths come from the always-resident directory; the payload pass
  // below decodes under one lease.
  bool ok = header_status.ok() && WriteU64(f, lists.num_transactions()) &&
            WriteU64(f, num_items) && WriteU64(f, pairs.size());

  // Offset tables are written after we know the data layout; compute it.
  const uint64_t header_bytes =
      persistence::FileHeader::kBytes + 3 * sizeof(uint64_t);
  const uint64_t item_table_bytes = num_items * 2 * sizeof(uint64_t);
  const uint64_t pair_table_bytes = pairs.size() * 3 * sizeof(uint64_t);
  uint64_t data_offset = header_bytes + item_table_bytes + pair_table_bytes;

  for (Item item = 0; ok && item < num_items; ++item) {
    const uint64_t length = lists.ItemListSize(item);
    ok = WriteU64(f, data_offset) && WriteU64(f, length);
    data_offset += length * sizeof(uint32_t);
  }
  for (size_t p = 0; ok && p < pairs.size(); ++p) {
    const uint64_t length = lists.PairListSize(pairs[p].first, pairs[p].second);
    const uint64_t key = (static_cast<uint64_t>(pairs[p].first) << 32) |
                         pairs[p].second;
    ok = WriteU64(f, key) && WriteU64(f, data_offset) && WriteU64(f, length);
    data_offset += length * sizeof(uint32_t);
  }

  // Payload: item lists then pair lists, in table order, decoded to the
  // raw uint32 layout this format stores.
  const TidListLease lease = lists.Lease();
  TidList decoded;
  for (Item item = 0; ok && item < num_items; ++item) {
    MaterializeInto(lists.ItemView(item), &decoded);
    if (!decoded.empty()) {
      ok = std::fwrite(decoded.data(), sizeof(uint32_t), decoded.size(), f) ==
           decoded.size();
    }
  }
  for (size_t p = 0; ok && p < pairs.size(); ++p) {
    MaterializeInto(lists.PairView(pairs[p].first, pairs[p].second), &decoded);
    if (!decoded.empty()) {
      ok = std::fwrite(decoded.data(), sizeof(uint32_t), decoded.size(), f) ==
           decoded.size();
    }
  }
  // The final buffered flush happens in fclose, so a full disk may only
  // surface here.
  const bool closed = std::fclose(f) == 0;
  if (!header_status.ok()) return header_status;
  if (!ok) return Status::IoError("short write: " + path);
  if (!closed) return Status::IoError("close failed: " + path);
  return Status::OK();
}

TidListFileReader::~TidListFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<TidListFileReader>> TidListFileReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  auto reader = std::unique_ptr<TidListFileReader>(new TidListFileReader());
  reader->file_ = f;

  auto header = persistence::FileHeader::ReadFrom(
      f, persistence::FormatId::kTidListIndexed, kTidListIndexedVersion, path);
  if (!header.ok()) return header.status();
  std::fseek(f, 0, SEEK_END);
  reader->file_bytes_ = static_cast<uint64_t>(std::ftell(f));
  const uint64_t max_lists = reader->file_bytes_ / (2 * sizeof(uint64_t));
  std::fseek(f, static_cast<long>(persistence::FileHeader::kBytes), SEEK_SET);
  uint64_t num_transactions = 0;
  uint64_t num_items = 0;
  uint64_t num_pairs = 0;
  bool ok = ReadU64(f, &num_transactions) && ReadU64(f, &num_items) &&
            ReadU64(f, &num_pairs) && num_items <= max_lists &&
            num_pairs <= max_lists;
  if (ok) {
    reader->num_transactions_ = num_transactions;
    reader->index_.resize(num_items);
    for (size_t i = 0; ok && i < num_items; ++i) {
      ok = ReadU64(f, &reader->index_[i].offset) &&
           ReadU64(f, &reader->index_[i].length);
    }
    for (size_t p = 0; ok && p < num_pairs; ++p) {
      uint64_t key = 0;
      Extent extent;
      ok = ReadU64(f, &key) && ReadU64(f, &extent.offset) &&
           ReadU64(f, &extent.length);
      if (ok) reader->pair_index_.emplace(key, extent);
    }
  }
  if (!ok) return Status::DataLoss("corrupt TID-list file: " + path);
  return reader;
}

Status TidListFileReader::ReadExtent(const Extent& extent, TidList* out) {
  // A corrupt offset table must not force an over-allocation or a read
  // outside the file.
  if (extent.offset > file_bytes_ ||
      extent.length > (file_bytes_ - extent.offset) / sizeof(uint32_t)) {
    return Status::DataLoss("TID-list extent outside the file");
  }
  out->resize(extent.length);
  if (extent.length == 0) return Status::OK();
  if (std::fseek(file_, static_cast<long>(extent.offset), SEEK_SET) != 0) {
    return Status::IoError("seek failed");
  }
  if (std::fread(out->data(), sizeof(uint32_t), extent.length, file_) !=
      extent.length) {
    return Status::IoError("short read");
  }
  bytes_read_ += extent.length * sizeof(uint32_t);
  return Status::OK();
}

Status TidListFileReader::ReadItemList(Item item, TidList* out) {
  if (item >= index_.size()) {
    return Status::InvalidArgument("item outside universe");
  }
  return ReadExtent(index_[item], out);
}

Status TidListFileReader::ReadPairList(Item a, Item b, TidList* out) {
  const auto it = pair_index_.find(PairKey(a, b));
  if (it == pair_index_.end()) {
    return Status::NotFound("pair not materialized");
  }
  return ReadExtent(it->second, out);
}

bool TidListFileReader::HasPairList(Item a, Item b) const {
  return pair_index_.count(PairKey(a, b)) > 0;
}

size_t TidListFileReader::ItemListLength(Item item) const {
  DEMON_CHECK(item < index_.size());
  return index_[item].length;
}

size_t TidListFileReader::PairListLength(Item a, Item b) const {
  const auto it = pair_index_.find(PairKey(a, b));
  return it == pair_index_.end() ? 0 : it->second.length;
}

}  // namespace demon
