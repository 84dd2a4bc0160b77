#include "server/tenant.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "data/block.h"

namespace demon::server {

namespace {

/// `mkdir -p`: creates every missing component of `path`.
Status MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir " + prefix + " failed: " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Tenant::Tenant(std::string name, std::string dir, const TenantPolicy& policy,
               std::unique_ptr<DemonMonitor> monitor)
    : name_(std::move(name)),
      dir_(std::move(dir)),
      policy_(policy),
      monitor_(std::move(monitor)) {}

std::string Tenant::CheckpointPath() const { return dir_ + "/checkpoint.demon"; }

std::string Tenant::WalPath() const { return dir_ + "/wal.demon"; }

Result<std::unique_ptr<Tenant>> Tenant::Create(std::string name,
                                               std::string dir,
                                               uint64_t num_items,
                                               std::vector<MonitorSpec> specs,
                                               const TenantPolicy& policy) {
  if (policy.flush_records == 0 || policy.checkpoint_blocks == 0) {
    return Status::InvalidArgument(
        "tenant policy needs flush_records >= 1 and checkpoint_blocks >= 1");
  }
  DEMON_RETURN_NOT_OK(MakeDirs(dir));
  auto monitor = std::make_unique<DemonMonitor>(num_items);
  for (MonitorSpec& spec : specs) {
    DEMON_RETURN_NOT_OK(monitor->AddMonitor(std::move(spec)).status());
  }
  auto tenant = std::unique_ptr<Tenant>(
      new Tenant(std::move(name), std::move(dir), policy, std::move(monitor)));
  // A WAL left behind by an incarnation that never reached its initial
  // checkpoint would replay records the fresh checkpoint knows nothing
  // about; discard it before attaching.
  if (FileExists(tenant->WalPath())) {
    if (std::remove(tenant->WalPath().c_str()) != 0) {
      return Status::IoError("cannot remove stale WAL " + tenant->WalPath());
    }
  }
  DEMON_RETURN_NOT_OK(tenant->monitor_->Checkpoint(tenant->CheckpointPath()));
  DEMON_RETURN_NOT_OK(tenant->monitor_->AttachWal(tenant->WalPath()));
  return tenant;
}

Result<std::unique_ptr<Tenant>> Tenant::Recover(std::string name,
                                                std::string dir,
                                                const TenantPolicy& policy) {
  if (policy.flush_records == 0 || policy.checkpoint_blocks == 0) {
    return Status::InvalidArgument(
        "tenant policy needs flush_records >= 1 and checkpoint_blocks >= 1");
  }
  auto tenant = std::unique_ptr<Tenant>(
      new Tenant(std::move(name), std::move(dir), policy, nullptr));
  auto monitor = DemonMonitor::Restore(tenant->CheckpointPath());
  if (!monitor.ok()) return monitor.status();
  tenant->monitor_ = std::move(monitor).value();
  // A missing WAL is a tenant that crashed right after Create's initial
  // checkpoint; everything durable is in the checkpoint already.
  if (FileExists(tenant->WalPath())) {
    DEMON_RETURN_NOT_OK(tenant->monitor_->ReplayWal(tenant->WalPath()));
  }
  DEMON_RETURN_NOT_OK(tenant->monitor_->AttachWal(tenant->WalPath()));
  {
    MutexLock lock(tenant->mutex_);
    tenant->records_durable_ = tenant->monitor_->snapshot().TotalRecords();
    tenant->records_admitted_ = tenant->records_durable_;
    tenant->blocks_ = tenant->monitor_->snapshot().latest_id();
  }
  return tenant;
}

Result<AppendOutcome> Tenant::Append(uint64_t first_record_index,
                                     const std::vector<Transaction>& records,
                                     ThreadPool* pool) {
  bool schedule = false;
  AppendOutcome outcome;
  {
    MutexLock lock(mutex_);
    DEMON_RETURN_NOT_OK(durable_status_);
    if (first_record_index > records_admitted_) {
      return Status::InvalidArgument(
          "append gap for tenant " + name_ + ": batch starts at record " +
          std::to_string(first_record_index) + " but only " +
          std::to_string(records_admitted_) + " records are admitted");
    }
    const uint64_t skip = records_admitted_ - first_record_index;
    if (skip >= records.size()) {
      outcome.deduplicated = records.size();
    } else {
      size_t slots = 0;
      for (size_t i = skip; i < records.size(); ++i) {
        slots += records[i].size();
      }
      if (slots > TransactionBlock::kMaxItemSlots - staged_items_.size()) {
        return Status::ResourceExhausted(
            "tenant " + name_ + " cannot stage " + std::to_string(slots) +
            " more item slots: 32-bit record offsets are full");
      }
      outcome.deduplicated = skip;
      outcome.accepted = records.size() - skip;
      for (size_t i = skip; i < records.size(); ++i) {
        const std::vector<Item>& items = records[i].items();
        staged_items_.insert(staged_items_.end(), items.begin(), items.end());
        staged_ends_.push_back(static_cast<uint32_t>(staged_items_.size()));
        if (staged_ends_.size() == policy_.flush_records) {
          cut_.push_back(CutStagedLocked());
        }
      }
      records_admitted_ += outcome.accepted;
    }
    if (!cut_.empty() && !flush_inflight_) {
      flush_inflight_ = true;
      schedule = true;
    }
    outcome.stats.records_admitted = records_admitted_;
    outcome.stats.records_durable = records_durable_;
    outcome.stats.blocks = blocks_;
  }
  if (schedule) {
    if (pool != nullptr) {
      pool->Submit([this, pool] { BackgroundFlush(pool); });
    } else {
      BackgroundFlush(nullptr);
    }
  }
  return outcome;
}

void Tenant::BackgroundFlush(ThreadPool* pool) {
  // Borrow one parallelism token so nested layers (and sibling tenants'
  // flushes sizing their own work) see a smaller budget while this runs.
  ThreadPool::TokenLease lease(pool, 1);
  for (;;) {
    CutRecords records;
    {
      MutexLock lock(mutex_);
      if (!durable_status_.ok() || cut_.empty()) {
        flush_inflight_ = false;
        flush_done_.NotifyAll();
        return;
      }
      records = std::move(cut_.front());
      cut_.pop_front();
    }
    const Status sealed = SealBlock(std::move(records));
    if (!sealed.ok()) {
      MutexLock lock(mutex_);
      if (durable_status_.ok()) durable_status_ = sealed;
      flush_inflight_ = false;
      flush_done_.NotifyAll();
      return;
    }
  }
}

Tenant::CutRecords Tenant::CutStagedLocked() {
  // Exact-size copies: the sealed block lives in the history for good, so
  // it must carry none of the staging arrays' growth slack.
  CutRecords cut;
  cut.items.assign(staged_items_.begin(), staged_items_.end());
  cut.ends.assign(staged_ends_.begin(), staged_ends_.end());
  staged_items_.clear();
  staged_ends_.clear();
  return cut;
}

Status Tenant::SealBlock(CutRecords records) {
  const uint64_t count = records.ends.size();
  uint64_t first_tid = 0;
  {
    MutexLock lock(mutex_);
    first_tid = records_durable_;
  }
  // Block metadata stays at its defaults (zero times, empty label): the
  // checkpoint must be a pure function of the record stream, and wall
  // clocks are exactly what byte-identical crash recovery cannot afford.
  monitor_->AddBlock(TransactionBlock(std::move(records.items),
                                      std::move(records.ends), first_tid));
  DEMON_RETURN_NOT_OK(monitor_->wal_status());
  bool checkpoint_due = false;
  {
    MutexLock lock(mutex_);
    records_durable_ += count;
    ++blocks_;
    ++blocks_since_checkpoint_;
    checkpoint_due = blocks_since_checkpoint_ >= policy_.checkpoint_blocks;
  }
  if (checkpoint_due) return WriteCheckpoint();
  return Status::OK();
}

Status Tenant::WriteCheckpoint() {
  DEMON_RETURN_NOT_OK(monitor_->Checkpoint(CheckpointPath()));
  // Only after the checkpoint is durably renamed may the WAL forget the
  // arrivals it covers.
  DEMON_RETURN_NOT_OK(monitor_->ResetWal());
  MutexLock lock(mutex_);
  blocks_since_checkpoint_ = 0;
  return Status::OK();
}

Status Tenant::Flush() {
  AcquireFlushToken();
  Status status = Status::OK();
  for (;;) {
    CutRecords records;
    bool checkpoint_due = false;
    {
      MutexLock lock(mutex_);
      if (!durable_status_.ok()) {
        status = durable_status_;
        break;
      }
      if (!cut_.empty()) {
        records = std::move(cut_.front());
        cut_.pop_front();
      } else if (!staged_ends_.empty()) {
        records = CutStagedLocked();  // the final partial block
      } else {
        checkpoint_due = blocks_since_checkpoint_ > 0;
      }
    }
    if (records.ends.empty()) {
      if (checkpoint_due) status = WriteCheckpoint();
      break;
    }
    status = SealBlock(std::move(records));
    if (!status.ok()) break;
  }
  if (!status.ok()) {
    MutexLock lock(mutex_);
    if (durable_status_.ok()) durable_status_ = status;
  }
  ReleaseFlushToken();
  return status;
}

TenantStats Tenant::Stats() {
  MutexLock lock(mutex_);
  TenantStats stats;
  stats.records_admitted = records_admitted_;
  stats.records_durable = records_durable_;
  stats.blocks = blocks_;
  return stats;
}

Status Tenant::durable_status() {
  MutexLock lock(mutex_);
  return durable_status_;
}

void Tenant::AcquireFlushToken() {
  MutexLock lock(mutex_);
  while (flush_inflight_) flush_done_.Wait(mutex_);
  flush_inflight_ = true;
}

void Tenant::ReleaseFlushToken() {
  MutexLock lock(mutex_);
  flush_inflight_ = false;
  flush_done_.NotifyAll();
}

}  // namespace demon::server
