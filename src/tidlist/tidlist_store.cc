#include "tidlist/tidlist_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/check.h"
#include "persistence/file.h"

namespace demon {

// ---------------------------------------------------------------------------
// TidListLease

void TidListLease::Release() {
  if (own_ != nullptr) {
    own_->Unpin();
    own_ = nullptr;
  }
  if (items_ != nullptr) {
    items_->Unpin();
    items_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// BlockTidLists: build + directory

std::shared_ptr<const BlockTidLists> BlockTidLists::Build(
    const TransactionBlock& block, size_t num_items,
    const PairMaterializationSpec* pairs) {
  auto lists = std::shared_ptr<BlockTidLists>(new BlockTidLists());
  lists->num_transactions_ = block.size();
  DEMON_CHECK_MSG(block.size() < UINT32_MAX,
                  "block too large for 32-bit offsets");

  // One scan of the block appends each transaction offset to the list of
  // every item it contains (paper §3.1.1 "materialization of TID-lists").
  std::vector<TidList> item_lists(num_items);
  uint32_t offset = 0;
  for (const TransactionView transaction : block) {
    for (Item item : transaction) {
      DEMON_CHECK_MSG(item < num_items, "item outside the declared universe");
      item_lists[item].push_back(offset);
    }
    ++offset;
  }
  for (const TidList& list : item_lists) {
    lists->item_list_slots_ += list.size();
  }

  std::vector<std::pair<uint64_t, TidList>> pair_lists;
  if (pairs != nullptr) {
    pair_lists = lists->SelectPairs(
        *pairs, [&item_lists](Item a, Item b, TidList* out) {
          IntersectInto(item_lists[a], item_lists[b], out);
        });
  }
  lists->EncodePayload(item_lists, pair_lists);
  return lists;
}

std::shared_ptr<const BlockTidLists> BlockTidLists::WithPairs(
    std::shared_ptr<const BlockTidLists> items,
    const PairMaterializationSpec& pairs) {
  DEMON_CHECK(items != nullptr && items->shared_items_ == nullptr);
  auto lists = std::shared_ptr<BlockTidLists>(new BlockTidLists());
  std::vector<std::pair<uint64_t, TidList>> pair_lists;
  {
    const TidListLease lease = items->Lease();
    pair_lists = lists->SelectPairs(
        pairs, [&items](Item a, Item b, TidList* out) {
          IntersectInto(items->ItemView(a), items->ItemView(b), out);
        });
  }
  if (pair_lists.empty()) return items;
  lists->num_transactions_ = items->num_transactions_;
  lists->shared_items_ = std::move(items);
  lists->EncodePayload({}, pair_lists);
  return lists;
}

template <typename Intersect>
std::vector<std::pair<uint64_t, TidList>> BlockTidLists::SelectPairs(
    const PairMaterializationSpec& pairs, const Intersect& intersect) {
  std::vector<std::pair<uint64_t, TidList>> pair_lists;
  std::unordered_set<uint64_t> seen;
  size_t used = 0;
  TidList joint;
  for (const auto& [a, b] : pairs.pairs) {
    DEMON_CHECK(a != b);
    const uint64_t key = PairKey(a, b);
    if (!seen.insert(key).second) continue;
    intersect(a, b, &joint);
    if (used + joint.size() > pairs.budget_slots) {
      // Paper heuristic: take as many highest-priority 2-itemsets as fit.
      continue;
    }
    used += joint.size();
    pair_lists.emplace_back(key, joint);
  }
  pair_list_slots_ = used;
  std::sort(pair_lists.begin(), pair_lists.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return pair_lists;
}

void BlockTidLists::EncodePayload(
    const std::vector<TidList>& item_lists,
    const std::vector<std::pair<uint64_t, TidList>>& pair_lists,
    size_t force_raw_item) {
  items_.assign(item_lists.size(), Extent{});
  pair_extents_.clear();
  std::vector<uint8_t> payload;
  const auto append = [&payload](const EncodedTidList& enc) {
    // 8-byte list alignment lets the raw kernels load uint32s straight out
    // of the extent.
    while (payload.size() % 8 != 0) payload.push_back(0);
    Extent ex;
    ex.offset = payload.size();
    ex.bytes = enc.bytes.size();
    ex.count = enc.num_tids;
    ex.encoding = enc.encoding;
    payload.insert(payload.end(), enc.bytes.begin(), enc.bytes.end());
    return ex;
  };
  for (size_t i = 0; i < item_lists.size(); ++i) {
    items_[i] = append(i == force_raw_item
                           ? EncodeTidListAs(TidEncoding::kRaw, item_lists[i])
                           : EncodeTidList(item_lists[i]));
  }
  for (const auto& [key, list] : pair_lists) {
    pair_extents_.emplace(key, append(EncodeTidList(list)));
  }
  encoded_bytes_ = payload.size();
  // A non-empty payload keeps `resident payload <=> payload_ != nullptr`
  // unconditional (empty vectors may hand out null data()).
  if (payload.empty()) payload.push_back(0);
  payload_bytes_ = payload.size();
  owned_ = std::move(payload);
  payload_.store(owned_.data(), std::memory_order_release);
}

BlockTidLists::~BlockTidLists() {
  if (pager_ != nullptr) pager_->Forget(this);
}

size_t BlockTidLists::ItemListSize(Item item) const {
  const BlockTidLists& lists = item_extent();
  DEMON_CHECK(item < lists.items_.size());
  return lists.items_[item].count;
}

TidEncoding BlockTidLists::ItemListEncoding(Item item) const {
  const BlockTidLists& lists = item_extent();
  DEMON_CHECK(item < lists.items_.size());
  return lists.items_[item].encoding;
}

size_t BlockTidLists::payload_bytes() const {
  if (shared_items_ == nullptr) return payload_bytes_;
  const size_t bytes =
      (shared_items_->encoded_bytes_ + 7) / 8 * 8 + encoded_bytes_;
  return bytes == 0 ? 1 : bytes;
}

bool BlockTidLists::HasPairList(Item a, Item b) const {
  return pair_extents_.count(PairKey(a, b)) > 0;
}

size_t BlockTidLists::PairListSize(Item a, Item b) const {
  const auto it = pair_extents_.find(PairKey(a, b));
  return it == pair_extents_.end() ? 0 : it->second.count;
}

std::vector<std::pair<Item, Item>> BlockTidLists::MaterializedPairs() const {
  std::vector<std::pair<Item, Item>> pairs;
  pairs.reserve(pair_extents_.size());
  for (const auto& [key, extent] : pair_extents_) {
    pairs.push_back({static_cast<Item>(key >> 32),
                     static_cast<Item>(key & 0xFFFFFFFFu)});
  }
  return pairs;
}

size_t BlockTidLists::EncodingCensus(TidEncoding encoding) const {
  size_t n = shared_items_ != nullptr ? shared_items_->EncodingCensus(encoding)
                                      : 0;
  for (const Extent& ex : items_) n += ex.encoding == encoding ? 1 : 0;
  for (const auto& [key, ex] : pair_extents_) {
    n += ex.encoding == encoding ? 1 : 0;
  }
  return n;
}

// ---------------------------------------------------------------------------
// BlockTidLists: payload access

TidListView BlockTidLists::ViewOf(const Extent& extent) const {
  if (extent.bytes == 0) {
    return TidListView{extent.encoding, extent.count, universe(), nullptr, 0};
  }
  const uint8_t* base = payload_.load(std::memory_order_acquire);
  DEMON_CHECK_MSG(base != nullptr,
                  "TID-list payload accessed without a lease");
  return TidListView{extent.encoding, extent.count, universe(),
                     base + extent.offset, static_cast<size_t>(extent.bytes)};
}

TidListView BlockTidLists::ItemView(Item item) const {
  const BlockTidLists& lists = item_extent();
  DEMON_CHECK(item < lists.items_.size());
  return lists.ViewOf(lists.items_[item]);
}

TidListView BlockTidLists::PairView(Item a, Item b) const {
  const auto it = pair_extents_.find(PairKey(a, b));
  DEMON_CHECK_MSG(it != pair_extents_.end(), "pair not materialized");
  return ViewOf(it->second);
}

TidList BlockTidLists::MaterializeItemList(Item item) const {
  TidListLease lease = Lease();
  TidList out;
  MaterializeInto(ItemView(item), &out);
  return out;
}

TidList BlockTidLists::MaterializePairList(Item a, Item b) const {
  TidListLease lease = Lease();
  TidList out;
  MaterializeInto(PairView(a, b), &out);
  return out;
}

bool BlockTidLists::Pin() const {
  if (pager_ == nullptr) return false;  // unmanaged: always resident
  // The increment is ordered before EnsureResident's residency check under
  // the pager mutex, so an evictor that misses this pin is followed by a
  // fault-in before any view is taken.
  pins_.fetch_add(1, std::memory_order_acq_rel);
  pager_->EnsureResident(this);
  return true;
}

void BlockTidLists::Unpin() const {
  pins_.fetch_sub(1, std::memory_order_release);
}

void BlockTidLists::AttachPager(std::shared_ptr<ExtentPager> pager) const {
  if (pager_decided_.exchange(true, std::memory_order_acq_rel)) return;
  if (pager == nullptr) return;
  pager_ = std::move(pager);
  pager_->Adopt(this);
}

void BlockTidLists::FaultIn(const ExtentPager& pager,
                            const std::string& spill_path) const {
  // The REQUIRES annotation proved the caller holds pager.mutex_; the
  // runtime check plus assertion bridge that to pager_->mutex_, which the
  // analysis cannot know is the same lock.
  DEMON_CHECK_MSG(&pager == pager_.get(),
                  "fault-in driven by a foreign pager");
  pager_->mutex_.AssertHeld();
  auto file = persistence::File::OpenForRead(spill_path);
  DEMON_CHECK_MSG(file.ok(), "cannot open a TID-list spill file");
  owned_.resize(payload_bytes_);
  DEMON_CHECK_MSG(file.value().ReadAt(0, owned_.data(), payload_bytes_).ok(),
                  "short read from a TID-list spill file");
  payload_.store(owned_.data(), std::memory_order_release);
}

void BlockTidLists::Spill(const ExtentPager& pager,
                          const std::string& path) const {
  DEMON_CHECK_MSG(&pager == pager_.get(), "spill driven by a foreign pager");
  pager_->mutex_.AssertHeld();
  const uint8_t* base = payload_.load(std::memory_order_acquire);
  DEMON_CHECK_MSG(base != nullptr, "spilling an evicted payload");
  const Status written = persistence::WriteFile(
      path, {std::string_view(reinterpret_cast<const char*>(base),
                              payload_bytes_)});
  DEMON_CHECK_MSG(written.ok(), "TID-list spill write failed");
}

void BlockTidLists::ReleasePayload(const ExtentPager& pager) const {
  DEMON_CHECK_MSG(&pager == pager_.get(),
                  "eviction driven by a foreign pager");
  pager_->mutex_.AssertHeld();
  payload_.store(nullptr, std::memory_order_release);
  std::vector<uint8_t>().swap(owned_);
}

void BlockTidLists::SetItemListForTest(Item item, const TidList& list) {
  DEMON_CHECK(shared_items_ == nullptr && item < items_.size());
  TidListLease lease = Lease();
  const size_t old_bytes = payload_bytes_;
  std::vector<TidList> item_lists(items_.size());
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i == item) {
      item_lists[i] = list;
    } else {
      MaterializeInto(ViewOf(items_[i]), &item_lists[i]);
    }
  }
  std::vector<uint64_t> keys;
  keys.reserve(pair_extents_.size());
  for (const auto& [key, extent] : pair_extents_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<uint64_t, TidList>> pair_lists;
  pair_lists.reserve(keys.size());
  for (uint64_t key : keys) {
    TidList decoded;
    MaterializeInto(ViewOf(pair_extents_.find(key)->second), &decoded);
    pair_lists.emplace_back(key, std::move(decoded));
  }
  EncodePayload(item_lists, pair_lists, item);
  if (pager_ != nullptr) pager_->OnPayloadRebuilt(this, old_bytes);
}

// ---------------------------------------------------------------------------
// Audits

namespace {

constexpr char kModule[] = "tidlist";

/// Renders the first entries of a list for a violation's state dump.
std::string DumpList(const TidList& list) {
  audit::Msg msg;
  msg << "size=" << list.size() << " [";
  const size_t shown = list.size() < 16 ? list.size() : 16;
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) msg << ", ";
    msg << list[i];
  }
  if (shown < list.size()) msg << ", ...";
  msg << "]";
  return msg;
}

/// True when `list` is sorted strictly increasing with offsets in range —
/// the gate for re-encode checks, which assert on malformed input.
bool ListStructureOk(const TidList& list, size_t num_transactions) {
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0 && list[i - 1] >= list[i]) return false;
    if (list[i] >= num_transactions) return false;
  }
  return true;
}

/// Checks one list for strict ascent and offset range.
void AuditOneList(const std::string& label, const TidList& list,
                  size_t num_transactions, audit::AuditResult* audit) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (list[i - 1] >= list[i]) {
      AUDIT_FAIL(audit, kModule, "tidlist/sorted-unique",
                 audit::Msg() << label << " not strictly increasing at index "
                              << i << " (" << list[i - 1] << " then "
                              << list[i] << ")",
                 DumpList(list));
      break;
    }
  }
  if (!list.empty() && list.back() >= num_transactions) {
    AUDIT_FAIL(audit, kModule, "tidlist/offset-range",
               audit::Msg() << label << " holds offset " << list.back()
                            << " >= block size " << num_transactions,
               DumpList(list));
  }
}

}  // namespace

void BlockTidLists::AuditInto(audit::AuditResult* audit) const {
  if (shared_items_ != nullptr) shared_items_->AuditInto(audit);
  TidListLease lease = Lease();
  size_t item_slots = 0;
  TidList decoded;
  // A few structurally valid item lists feed the cross-encoding kernel
  // agreement check below.
  std::vector<TidList> kernel_sample;
  for (size_t item = 0; item < items_.size(); ++item) {
    const Extent& ex = items_[item];
    MaterializeInto(ViewOf(ex), &decoded);
    item_slots += decoded.size();
    const std::string label = audit::Msg() << "item " << item << " list";
    AuditOneList(label, decoded, num_transactions_, audit);
    AUDIT_CHECK(audit, kModule, "tidlist/directory-count",
                decoded.size() == ex.count,
                audit::Msg() << label << " decodes to " << decoded.size()
                             << " tids but the directory says " << ex.count,
                DumpList(decoded));
    if (ListStructureOk(decoded, num_transactions_)) {
      // Encoding is deterministic, so a stored extent must equal the
      // re-encoding of its own decode.
      const EncodedTidList enc = EncodeTidListAs(ex.encoding, decoded);
      const TidListView view = ViewOf(ex);
      const bool same =
          enc.bytes.size() == view.bytes &&
          (view.bytes == 0 ||
           std::memcmp(enc.bytes.data(), view.data, view.bytes) == 0);
      AUDIT_CHECK(audit, kModule, "tidlist/encode-roundtrip", same,
                  audit::Msg() << label << " extent differs from the "
                               << TidEncodingName(ex.encoding)
                               << " re-encoding of its decode",
                  DumpList(decoded));
      if (!decoded.empty() && kernel_sample.size() < 4) {
        kernel_sample.push_back(decoded);
      }
    }
  }
  AUDIT_CHECK(audit, kModule, "tidlist/item-slots",
              item_slots == item_list_slots_,
              audit::Msg() << "item_list_slots accounting (" << item_list_slots_
                           << ") != sum of list sizes (" << item_slots << ")",
              "");

  size_t pair_slots = 0;
  TidList item_a;
  TidList item_b;
  for (const auto& [key, ex] : pair_extents_) {
    const Item a = static_cast<Item>(key >> 32);
    const Item b = static_cast<Item>(key & 0xFFFFFFFFu);
    MaterializeInto(ViewOf(ex), &decoded);
    pair_slots += decoded.size();
    const std::string label = audit::Msg() << "pair {" << a << "," << b
                                           << "} list";
    AUDIT_CHECK(audit, kModule, "tidlist/pair-key",
                a < b && b < num_items(),
                audit::Msg() << label << " has a malformed key", "");
    if (a >= b || b >= num_items()) continue;
    AuditOneList(label, decoded, num_transactions_, audit);
    AUDIT_CHECK(audit, kModule, "tidlist/directory-count",
                decoded.size() == ex.count,
                audit::Msg() << label << " decodes to " << decoded.size()
                             << " tids but the directory says " << ex.count,
                DumpList(decoded));
    // Store/index consistency: a materialized pair list must equal the
    // intersection of its item lists — ECUT+ serves either interchangeably.
    MaterializeInto(ItemView(a), &item_a);
    MaterializeInto(ItemView(b), &item_b);
    if (decoded != Intersect(item_a, item_b)) {
      AUDIT_FAIL(audit, kModule, "tidlist/pair-is-intersection",
                 audit::Msg() << label
                              << " differs from the item-list intersection",
                 DumpList(decoded));
    }
  }
  AUDIT_CHECK(audit, kModule, "tidlist/pair-slots",
              pair_slots == pair_list_slots_,
              audit::Msg() << "pair_list_slots accounting (" << pair_list_slots_
                           << ") != sum of pair list sizes (" << pair_slots
                           << ")",
              "");

  // Cross-encoding agreement: every kernel pair must produce the raw-merge
  // intersection on sampled lists.
  TidList kernel_out;
  for (size_t s = 0; s + 1 < kernel_sample.size(); ++s) {
    const TidList& la = kernel_sample[s];
    const TidList& lb = kernel_sample[s + 1];
    const TidList expected = Intersect(la, lb);
    for (uint8_t ea = 0; ea < kNumTidEncodings; ++ea) {
      const EncodedTidList enc_a =
          EncodeTidListAs(static_cast<TidEncoding>(ea), la);
      for (uint8_t eb = 0; eb < kNumTidEncodings; ++eb) {
        const EncodedTidList enc_b =
            EncodeTidListAs(static_cast<TidEncoding>(eb), lb);
        IntersectInto(enc_a.View(universe()), enc_b.View(universe()),
                      &kernel_out);
        AUDIT_CHECK(audit, kModule, "tidlist/kernel-agreement",
                    kernel_out == expected,
                    audit::Msg()
                        << TidEncodingName(static_cast<TidEncoding>(ea))
                        << "x"
                        << TidEncodingName(static_cast<TidEncoding>(eb))
                        << " kernel disagrees with the raw merge",
                    DumpList(kernel_out));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TidListStore

TidListStore::TidListStore(const TidListStoreOptions& options) {
  if (options.memory_budget_bytes != 0) {
    pager_ = ExtentPager::Create(options);
  }
}

void TidListStore::Append(std::shared_ptr<const BlockTidLists> block) {
  block->AttachPager(pager_);
  if (block->shared_items_ != nullptr) {
    block->shared_items_->AttachPager(pager_);
  }
  blocks_.push_back(std::move(block));
}

void TidListStore::AuditInto(audit::AuditResult* audit) const {
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i] == nullptr) {
      AUDIT_FAIL(audit, "tidlist", "tidlist/store-null-block",
                 audit::Msg() << "store holds a null block at position " << i,
                 "");
      continue;
    }
    blocks_[i]->AuditInto(audit);
  }
  if (pager_ != nullptr) pager_->AuditInto(audit);
}

void TidListStore::DropOldest(size_t count) {
  DEMON_CHECK(count <= blocks_.size());
  blocks_.erase(blocks_.begin(), blocks_.begin() + count);
}

void TidListStore::DropAt(size_t index) {
  DEMON_CHECK(index < blocks_.size());
  blocks_.erase(blocks_.begin() + index);
}

size_t TidListStore::TotalTransactions() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b->num_transactions();
  return total;
}

size_t TidListStore::TotalItemSlots() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b->item_list_slots();
  return total;
}

size_t TidListStore::TotalPairSlots() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b->pair_list_slots();
  return total;
}

size_t TidListStore::TotalPayloadBytes() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b->payload_bytes();
  return total;
}

void TidListStore::ResidencyOrder(std::vector<uint32_t>* order) const {
  const size_t n = blocks_.size();
  order->resize(n);
  for (size_t i = 0; i < n; ++i) (*order)[i] = static_cast<uint32_t>(i);
  if (pager_ == nullptr) return;
  // Snapshot residency once so each index lands in exactly one class even
  // while the pager moves blocks concurrently.
  std::vector<unsigned char> resident(n, 0);
  for (size_t i = 0; i < n; ++i) {
    resident[i] = blocks_[i]->resident() ? 1 : 0;
  }
  std::stable_partition(order->begin(), order->end(),
                        [&resident](uint32_t i) { return resident[i] != 0; });
}

void TidListStore::set_telemetry(telemetry::TelemetryRegistry* registry) {
  if (pager_ != nullptr) pager_->set_telemetry(registry);
}

}  // namespace demon
