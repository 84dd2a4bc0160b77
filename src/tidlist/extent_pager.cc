#include "tidlist/extent_pager.h"

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "persistence/file.h"
#include "tidlist/tidlist_store.h"

namespace demon {

TidListStoreOptions TidListStoreOptions::FromEnv() {
  TidListStoreOptions options;
  // Startup-time configuration reads; no concurrent setenv in this process.
  const char* budget =
      std::getenv("DEMON_TIDLIST_BUDGET_BYTES");  // NOLINT(concurrency-mt-unsafe)
  if (budget != nullptr) {
    options.memory_budget_bytes =
        static_cast<size_t>(std::strtoull(budget, nullptr, 10));
  }
  const char* dir =
      std::getenv("DEMON_TIDLIST_SPILL_DIR");  // NOLINT(concurrency-mt-unsafe)
  if (dir != nullptr) options.spill_dir = dir;
  return options;
}

std::shared_ptr<ExtentPager> ExtentPager::Create(
    const TidListStoreOptions& options) {
  return std::shared_ptr<ExtentPager>(new ExtentPager(options));
}

ExtentPager::ExtentPager(const TidListStoreOptions& options)
    : options_(options) {
  // Distinct pagers may share one explicit spill directory (several
  // monitors configured with the same spill_dir), so spill names carry a
  // process-wide pager id: per-pager sequence numbers alone would collide
  // and one pager's cleanup would delete another's spill file.
  static std::atomic<uint64_t> next_pager_id{1};
  pager_id_ = next_pager_id.fetch_add(1, std::memory_order_relaxed);
}

ExtentPager::~ExtentPager() {
  // Blocks hold a shared_ptr to their pager, so every block has been
  // Forgotten (and its spill file removed) by the time we run; only the
  // directory itself can remain.
  if (owns_spill_dir_) ::rmdir(spill_dir_.c_str());
}

void ExtentPager::set_telemetry(telemetry::TelemetryRegistry* registry) {
  MutexLock lock(mutex_);
  telemetry_ = registry;
  if (registry == nullptr) {
    page_ins_counter_ = nullptr;
    evictions_counter_ = nullptr;
    spilled_bytes_counter_ = nullptr;
    resident_gauge_ = nullptr;
    page_in_seconds_ = nullptr;
    return;
  }
  // Takes the registry's metrics-map lock under mutex_ — the lock-order
  // edge declared on mutex_ (DEMON_ACQUIRED_BEFORE).
  page_ins_counter_ = registry->counter("tidlist/page_ins");
  evictions_counter_ = registry->counter("tidlist/evictions");
  spilled_bytes_counter_ = registry->counter("tidlist/spilled_bytes");
  resident_gauge_ = registry->gauge("tidlist/resident_bytes");
  page_in_seconds_ = registry->histogram("tidlist/page_in_seconds");
}

ExtentPager::Entry* ExtentPager::FindEntryLocked(const BlockTidLists* block) {
  for (Entry& entry : entries_) {
    if (entry.block == block) return &entry;
  }
  return nullptr;
}

void ExtentPager::Adopt(const BlockTidLists* block) {
  MutexLock lock(mutex_);
  Entry entry;
  entry.block = block;
  entry.lru_stamp = ++clock_;
  entries_.push_back(std::move(entry));
  if (block->payload_.load(std::memory_order_relaxed) != nullptr) {
    const size_t now =
        resident_bytes_.fetch_add(block->payload_bytes_,
                                  std::memory_order_relaxed) +
        block->payload_bytes_;
    if (now > peak_resident_bytes_.load(std::memory_order_relaxed)) {
      peak_resident_bytes_.store(now, std::memory_order_relaxed);
    }
    if (resident_gauge_ != nullptr) {
      resident_gauge_->Set(static_cast<double>(now));
    }
  }
  EvictToBudgetLocked(block);
}

void ExtentPager::Forget(const BlockTidLists* block) {
  MutexLock lock(mutex_);
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [block](const Entry& e) { return e.block == block; });
  if (it == entries_.end()) return;
  if (block->payload_.load(std::memory_order_relaxed) != nullptr) {
    const size_t now = resident_bytes_.fetch_sub(
                           block->payload_bytes_, std::memory_order_relaxed) -
                       block->payload_bytes_;
    if (resident_gauge_ != nullptr) {
      resident_gauge_->Set(static_cast<double>(now));
    }
  }
  if (!it->spill_path.empty()) persistence::RemoveFile(it->spill_path);
  entries_.erase(it);
}

void ExtentPager::EnsureResident(const BlockTidLists* block) {
  MutexLock lock(mutex_);
  Entry* entry = FindEntryLocked(block);
  DEMON_CHECK_MSG(entry != nullptr, "EnsureResident on an unadopted block");
  entry->lru_stamp = ++clock_;
  if (block->payload_.load(std::memory_order_relaxed) != nullptr) return;
  DEMON_CHECK_MSG(entry->spilled && !entry->spill_path.empty(),
                  "TID-list fault-in without a spill file");
  {
    telemetry::ScopedTimer timer(page_in_seconds_);
    block->FaultIn(*this, entry->spill_path);
  }
  page_ins_.fetch_add(1, std::memory_order_relaxed);
  DEMON_COUNTER_ADD(page_ins_counter_, 1);
  const size_t now = resident_bytes_.fetch_add(block->payload_bytes_,
                                               std::memory_order_relaxed) +
                     block->payload_bytes_;
  if (now > peak_resident_bytes_.load(std::memory_order_relaxed)) {
    peak_resident_bytes_.store(now, std::memory_order_relaxed);
  }
  if (resident_gauge_ != nullptr) {
    resident_gauge_->Set(static_cast<double>(now));
  }
  EvictToBudgetLocked(block);
}

void ExtentPager::OnPayloadRebuilt(const BlockTidLists* block,
                                   size_t old_bytes) {
  MutexLock lock(mutex_);
  // The caller holds a lease, so the block is resident throughout.
  resident_bytes_.fetch_sub(old_bytes, std::memory_order_relaxed);
  resident_bytes_.fetch_add(block->payload_bytes_,
                            std::memory_order_relaxed);
  Entry* entry = FindEntryLocked(block);
  DEMON_CHECK_MSG(entry != nullptr, "payload rebuild on an unadopted block");
  if (!entry->spill_path.empty()) {
    persistence::RemoveFile(entry->spill_path);
    entry->spill_path.clear();
  }
  entry->spilled = false;
}

void ExtentPager::EvictToBudgetLocked(const BlockTidLists* keep) {
  const size_t budget = options_.memory_budget_bytes;
  while (resident_bytes_.load(std::memory_order_relaxed) > budget) {
    Entry* victim = nullptr;
    for (Entry& entry : entries_) {
      const BlockTidLists* b = entry.block;
      if (b == keep) continue;
      if (b->payload_.load(std::memory_order_relaxed) == nullptr) continue;
      if (b->pins_.load(std::memory_order_acquire) != 0) continue;
      if (victim == nullptr || entry.lru_stamp < victim->lru_stamp) {
        victim = &entry;
      }
    }
    // No unpinned victim: the budget is a target, not a hard cap — the
    // pinned working set stays resident and the peak metric records it.
    if (victim == nullptr) return;
    if (!victim->spilled) {
      victim->spill_path = NextSpillPathLocked();
      victim->block->Spill(*this, victim->spill_path);
      victim->spilled = true;
      spills_.fetch_add(1, std::memory_order_relaxed);
      DEMON_COUNTER_ADD(spilled_bytes_counter_, victim->block->payload_bytes_);
    }
    victim->block->ReleasePayload(*this);
    const size_t now =
        resident_bytes_.fetch_sub(victim->block->payload_bytes_,
                                  std::memory_order_relaxed) -
        victim->block->payload_bytes_;
    evictions_.fetch_add(1, std::memory_order_relaxed);
    DEMON_COUNTER_ADD(evictions_counter_, 1);
    if (resident_gauge_ != nullptr) {
      resident_gauge_->Set(static_cast<double>(now));
    }
  }
}

std::string ExtentPager::NextSpillPathLocked() {
  if (spill_dir_.empty()) {
    if (!options_.spill_dir.empty()) {
      ::mkdir(options_.spill_dir.c_str(), 0755);  // may already exist
      spill_dir_ = options_.spill_dir;
    } else {
      // TMPDIR is read once, at first spill; no concurrent setenv here.
      const char* tmp = std::getenv("TMPDIR");  // NOLINT(concurrency-mt-unsafe)
      std::string templ = std::string(tmp != nullptr ? tmp : "/tmp") +
                          "/demon-tidlists-XXXXXX";
      DEMON_CHECK_MSG(::mkdtemp(templ.data()) != nullptr,
                      "cannot create a TID-list spill directory");
      spill_dir_ = templ;
      owns_spill_dir_ = true;
    }
  }
  char name[96];
  std::snprintf(name, sizeof(name), "/extent-%d-%llu-%llu.tid",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(pager_id_),
                static_cast<unsigned long long>(++spill_seq_));
  return spill_dir_ + name;
}

bool ExtentPager::IsResident(const BlockTidLists* block) const {
  return block->payload_.load(std::memory_order_relaxed) != nullptr;
}

void ExtentPager::AuditInto(audit::AuditResult* audit) const {
  MutexLock lock(mutex_);
  constexpr char kModule[] = "tidlist";
  size_t sum = 0;
  for (const Entry& entry : entries_) {
    const BlockTidLists* b = entry.block;
    const bool resident =
        b->payload_.load(std::memory_order_relaxed) != nullptr;
    if (resident) sum += b->payload_bytes_;
    AUDIT_CHECK(audit, kModule, "tidlist/pager-pinned-resident",
                b->pins_.load(std::memory_order_acquire) == 0 || resident,
                audit::Msg() << "pinned block " << static_cast<const void*>(b)
                             << " is not resident",
                "");
    AUDIT_CHECK(audit, kModule, "tidlist/pager-spill-state",
                entry.spilled == !entry.spill_path.empty(),
                audit::Msg() << "spill flag and spill path disagree for "
                             << static_cast<const void*>(b),
                "");
  }
  const size_t accounted = resident_bytes_.load(std::memory_order_relaxed);
  AUDIT_CHECK(audit, kModule, "tidlist/pager-resident-bytes",
              sum == accounted,
              audit::Msg() << "resident byte counter (" << accounted
                           << ") != sum of resident extents (" << sum << ")",
              "");
  AUDIT_CHECK(audit, kModule, "tidlist/pager-peak",
              peak_resident_bytes_.load(std::memory_order_relaxed) >=
                  accounted,
              audit::Msg() << "peak resident bytes below current", "");
}

}  // namespace demon
