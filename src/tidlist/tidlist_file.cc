#include "tidlist/tidlist_file.h"

#include <algorithm>

#include "common/check.h"
#include "persistence/file_header.h"

namespace demon {

namespace {

constexpr uint32_t kTidListIndexedVersion = 1;
/// Header plus the three counts: num_transactions, num_items, num_pairs.
constexpr uint64_t kTablesStart =
    persistence::FileHeader::kBytes + 3 * sizeof(uint64_t);
/// Table entries: offset and length per item; key, offset and length per
/// materialized pair.
constexpr uint64_t kItemEntryBytes = 2 * sizeof(uint64_t);
constexpr uint64_t kPairEntryBytes = 3 * sizeof(uint64_t);

}  // namespace

Status TidListFile::Write(const BlockTidLists& lists,
                          const std::string& path) {
  const size_t num_items = lists.num_items();
  auto pairs = lists.MaterializedPairs();
  // MaterializedPairs comes back in hash order; sort for a deterministic
  // file image.
  std::sort(pairs.begin(), pairs.end());

  persistence::Writer w;
  persistence::FileHeader::Append(w, persistence::FormatId::kTidListIndexed,
                                  kTidListIndexedVersion);
  w.WriteU64(lists.num_transactions());
  w.WriteU64(num_items);
  w.WriteU64(pairs.size());

  // The offset tables precede the data, so lay the data out first. List
  // lengths come from the always-resident directory; the payload pass
  // below decodes under one lease.
  uint64_t data_offset = kTablesStart + num_items * kItemEntryBytes +
                         pairs.size() * kPairEntryBytes;
  for (Item item = 0; item < num_items; ++item) {
    const uint64_t length = lists.ItemListSize(item);
    w.WriteU64(data_offset);
    w.WriteU64(length);
    data_offset += length * sizeof(uint32_t);
  }
  for (const auto& [a, b] : pairs) {
    const uint64_t length = lists.PairListSize(a, b);
    w.WriteU64((static_cast<uint64_t>(a) << 32) | b);
    w.WriteU64(data_offset);
    w.WriteU64(length);
    data_offset += length * sizeof(uint32_t);
  }

  // Payload: item lists then pair lists, in table order, decoded to the
  // raw uint32 layout this format stores.
  const TidListLease lease = lists.Lease();
  TidList decoded;
  for (Item item = 0; item < num_items; ++item) {
    MaterializeInto(lists.ItemView(item), &decoded);
    w.AppendRaw(decoded.data(), decoded.size() * sizeof(uint32_t));
  }
  for (const auto& [a, b] : pairs) {
    MaterializeInto(lists.PairView(a, b), &decoded);
    w.AppendRaw(decoded.data(), decoded.size() * sizeof(uint32_t));
  }
  return persistence::WriteFile(path, {w.buffer()});
}

Result<std::unique_ptr<TidListFileReader>> TidListFileReader::Open(
    const std::string& path) {
  DEMON_ASSIGN_OR_RETURN(persistence::File file,
                         persistence::File::OpenForRead(path));
  DEMON_ASSIGN_OR_RETURN(const uint64_t file_bytes, file.Size());
  std::string head(std::min(file_bytes, kTablesStart), '\0');
  DEMON_RETURN_NOT_OK(file.ReadAt(0, head.data(), head.size()));
  persistence::Reader r(head);
  DEMON_RETURN_NOT_OK(
      persistence::FileHeader::Consume(r,
                                       persistence::FormatId::kTidListIndexed,
                                       kTidListIndexedVersion, path)
          .status());
  const uint64_t num_transactions = r.ReadU64();
  const uint64_t num_items = r.ReadU64();
  const uint64_t num_pairs = r.ReadU64();
  // The tables must fit in the file, which also bounds the allocations
  // below against corrupt counts.
  const uint64_t table_room = file_bytes - head.size();
  if (!r.ok() || num_items > table_room / kItemEntryBytes ||
      num_pairs >
          (table_room - num_items * kItemEntryBytes) / kPairEntryBytes) {
    return Status::DataLoss("corrupt TID-list file: " + path);
  }
  std::string tables(num_items * kItemEntryBytes + num_pairs * kPairEntryBytes,
                     '\0');
  DEMON_RETURN_NOT_OK(file.ReadAt(kTablesStart, tables.data(), tables.size()));

  auto reader = std::unique_ptr<TidListFileReader>(
      new TidListFileReader(std::move(file)));
  reader->file_bytes_ = file_bytes;
  reader->num_transactions_ = num_transactions;
  persistence::Reader t(tables);
  reader->index_.resize(num_items);
  // Braced initializers evaluate left to right: offset, then length.
  for (Extent& extent : reader->index_) extent = {t.ReadU64(), t.ReadU64()};
  for (uint64_t p = 0; p < num_pairs; ++p) {
    const uint64_t key = t.ReadU64();
    reader->pair_index_.emplace(key, Extent{t.ReadU64(), t.ReadU64()});
  }
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
  DEMON_RETURN_NOT_OK(file_.ReadAt(extent.offset, out->data(),
                                   extent.length * sizeof(uint32_t)));
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
