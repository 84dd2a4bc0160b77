#include "persistence/block_codec.h"

#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace demon::persistence {

void WriteBlockInfo(Writer& w, const BlockInfo& info) {
  w.WriteU32(info.id);
  w.WriteI64(info.start_time);
  w.WriteI64(info.end_time);
  w.WriteString(info.label);
}

BlockInfo ReadBlockInfo(Reader& r) {
  BlockInfo info;
  info.id = r.ReadU32();
  info.start_time = r.ReadI64();
  info.end_time = r.ReadI64();
  info.label = r.ReadString();
  return info;
}

void WriteLabeledSchema(Writer& w, const LabeledSchema& schema) {
  w.WriteU32Vector(schema.attribute_cardinalities);
  w.WriteU32(schema.num_classes);
}

LabeledSchema ReadLabeledSchema(Reader& r) {
  LabeledSchema schema;
  schema.attribute_cardinalities = r.ReadU32Vector();
  schema.num_classes = r.ReadU32();
  return schema;
}

void WriteBlock(Writer& w, const TransactionBlock& block) {
  WriteTransactionBlock(w, block.info(), block.first_tid(), block.items(),
                        block.ends());
}

void WriteTransactionBlock(Writer& w, const BlockInfo& info, Tid first_tid,
                           const std::vector<Item>& items,
                           const std::vector<uint32_t>& ends) {
  WriteBlockInfo(w, info);
  w.WriteU64(first_tid);
  w.WriteU64(ends.size());
  uint32_t begin = 0;
  for (const uint32_t end : ends) {
    w.WriteU64(end - begin);
    w.AppendRaw(items.data() + begin, (end - begin) * sizeof(Item));
    begin = end;
  }
}

void ReadBlockInto(Reader& r, TransactionBlock* block) {
  const BlockInfo info = ReadBlockInfo(r);
  const Tid first_tid = r.ReadU64();
  // Each record carries at least its u64 length, so the remaining bytes
  // bound the record count — and, read once per record below, the items.
  const size_t n = r.ReadLength(sizeof(uint64_t));
  std::vector<uint32_t> ends;
  ends.reserve(n);
  std::vector<Item> items;
  for (size_t i = 0; r.ok() && i < n; ++i) {
    const size_t length = r.ReadLength(sizeof(Item));
    const std::string_view bytes = r.ReadBytes(length * sizeof(Item));
    if (!r.ok()) break;
    if (items.size() + length > TransactionBlock::kMaxItemSlots) {
      r.Fail("transaction block exceeds 32-bit record offsets");
      break;
    }
    const size_t at = items.size();
    items.resize(at + length);
    if (length > 0) std::memcpy(items.data() + at, bytes.data(), bytes.size());
    ends.push_back(static_cast<uint32_t>(items.size()));
  }
  if (!r.ok()) return;
  *block = TransactionBlock(std::move(items), std::move(ends), first_tid);
  *block->mutable_info() = info;
}

void WriteBlock(Writer& w, const PointBlock& block) {
  WriteBlockInfo(w, block.info());
  w.WriteU64(block.dim());
  w.WriteDoubleVector(block.coords());
}

void ReadBlockInto(Reader& r, PointBlock* block) {
  const BlockInfo info = ReadBlockInfo(r);
  const uint64_t dim = r.ReadU64();
  std::vector<double> coords = r.ReadDoubleVector();
  if (!r.ok()) return;
  if (dim == 0 && !coords.empty()) {
    r.Fail("point block has coordinates but dimension 0");
    return;
  }
  if (dim > 0 && coords.size() % dim != 0) {
    r.Fail("point block coordinate count is not a multiple of its dimension");
    return;
  }
  if (dim > 0) {
    *block = PointBlock(std::move(coords), static_cast<size_t>(dim));
  } else {
    *block = PointBlock();
  }
  *block->mutable_info() = info;
}

void WriteBlock(Writer& w, const LabeledBlock& block) {
  WriteBlockInfo(w, block.info());
  WriteLabeledSchema(w, block.schema());
  w.WriteU64(block.size());
  for (const LabeledRecord& record : block.records()) {
    w.WriteU32Vector(record.attributes);
    w.WriteU32(record.label);
  }
}

void ReadBlockInto(Reader& r, LabeledBlock* block) {
  const BlockInfo info = ReadBlockInfo(r);
  const LabeledSchema schema = ReadLabeledSchema(r);
  const size_t n = r.ReadLength(sizeof(uint32_t));
  std::vector<LabeledRecord> records;
  records.reserve(n);
  for (size_t i = 0; r.ok() && i < n; ++i) {
    LabeledRecord record;
    record.attributes = r.ReadU32Vector();
    record.label = r.ReadU32();
    if (!r.ok()) break;
    // Validate against the schema before the LabeledBlock constructor
    // DEMON_CHECKs the same conditions (corrupt input must not abort).
    if (record.attributes.size() != schema.num_attributes() ||
        record.label >= schema.num_classes) {
      r.Fail("labeled record " + std::to_string(i) +
             " disagrees with its schema");
      return;
    }
    for (size_t a = 0; a < record.attributes.size(); ++a) {
      if (record.attributes[a] >= schema.attribute_cardinalities[a]) {
        r.Fail("labeled record " + std::to_string(i) +
               " holds an out-of-range attribute value");
        return;
      }
    }
    records.push_back(std::move(record));
  }
  if (!r.ok()) return;
  *block = LabeledBlock(schema, std::move(records));
  *block->mutable_info() = info;
}

}  // namespace demon::persistence
