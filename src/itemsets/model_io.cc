#include "itemsets/model_io.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "persistence/file_header.h"

namespace demon {

namespace {

constexpr uint32_t kModelFormatVersion = 1;

}  // namespace

void SerializeItemsetModel(persistence::Writer& w, const ItemsetModel& model) {
  w.WriteDouble(model.minsup());
  w.WriteU64(model.num_items());
  w.WriteU64(model.num_transactions());
  w.WriteU64(model.entries().size());
  // Canonical order — checkpoints of equal models must be byte-equal for
  // the restore-equivalence tests — is the trie's depth-first order, which
  // is ItemsetLess order.
  const ItemsetTrie& trie = model.entries();
  trie.ForEachTracked([&](const Itemset& itemset, ItemsetTrie::NodeId node) {
    w.WriteU32Vector(itemset);
    w.WriteU64(trie.entry(node).count);
    w.WriteBool(trie.entry(node).frequent);
  });
}

void DeserializeItemsetModel(persistence::Reader& r, size_t max_items,
                             ItemsetModel* model) {
  const double minsup = r.ReadDouble();
  const uint64_t num_items = r.ReadU64();
  const uint64_t num_transactions = r.ReadU64();
  const size_t num_entries = r.ReadLength(sizeof(uint64_t) + 1);
  if (!r.ok()) return;
  if (!(minsup > 0.0 && minsup < 1.0)) {
    r.Fail("model minsup outside (0, 1)");
    return;
  }
  if (num_items > max_items) {
    r.Fail("model item universe larger than the caller's");
    return;
  }
  ItemsetModel loaded(minsup, num_items);
  loaded.set_num_transactions(num_transactions);
  // Entries arrive in ItemsetLess order, so each insert appends below an
  // existing path.
  ItemsetTrie& trie = *loaded.mutable_entries();
  for (size_t e = 0; e < num_entries; ++e) {
    const Itemset itemset = r.ReadU32Vector();
    const uint64_t count = r.ReadU64();
    const bool frequent = r.ReadBool();
    if (!r.ok()) return;
    // The trie only holds well-formed keys: non-empty, strictly
    // increasing, inside the item universe.
    const bool well_formed =
        !itemset.empty() && itemset.back() < num_items &&
        std::adjacent_find(itemset.begin(), itemset.end(),
                           std::greater_equal<Item>()) == itemset.end();
    if (!well_formed) {
      r.Fail("model itemset is empty, unsorted or outside the universe");
      return;
    }
    trie.Insert(itemset, ItemsetModel::Entry{count, frequent});
  }
  *model = std::move(loaded);
}

Status WriteItemsetModel(const ItemsetModel& model, const std::string& path) {
  persistence::Writer payload;
  SerializeItemsetModel(payload, model);
  return persistence::WritePayloadFile(path, persistence::FormatId::kItemsetModel,
                                       kModelFormatVersion, payload);
}

Result<ItemsetModel> ReadItemsetModel(const std::string& path,
                                      size_t max_items) {
  DEMON_ASSIGN_OR_RETURN(
      const std::string payload,
      persistence::ReadPayloadFile(path, persistence::FormatId::kItemsetModel,
                                   kModelFormatVersion));
  persistence::Reader r(payload);
  ItemsetModel model;
  DeserializeItemsetModel(r, max_items, &model);
  DEMON_RETURN_NOT_OK(r.status());
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after model payload: " + path);
  }
  return model;
}

uint64_t SerializedModelBytes(const ItemsetModel& model) {
  // FileHeader + (minsup, num_items, num_transactions, num_entries) +
  // per entry: length-prefixed items + count + frequent byte. Must stay in
  // lockstep with SerializeItemsetModel; model_io_test asserts predicted ==
  // written for empty, single-itemset, and large models.
  uint64_t bytes = persistence::FileHeader::kBytes + 4 * sizeof(uint64_t);
  model.entries().ForEachTracked([&](const Itemset& itemset,
                                     ItemsetTrie::NodeId) {
    bytes += sizeof(uint64_t) + itemset.size() * sizeof(Item) +
             sizeof(uint64_t) + 1;
  });
  return bytes;
}

}  // namespace demon
