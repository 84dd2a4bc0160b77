#include "server/tenant_host.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <utility>

namespace demon::server {

namespace {

bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

TenantHost::TenantHost(std::string data_dir, size_t num_threads,
                       TenantPolicy policy,
                       telemetry::TelemetryRegistry* telemetry)
    : data_dir_(std::move(data_dir)),
      policy_(policy),
      pool_(std::max<size_t>(1, num_threads)),
      telemetry_(telemetry) {}

Status TenantHost::ValidateTenantName(const std::string& name) {
  if (name.empty() || name.size() > 100) {
    return Status::InvalidArgument(
        "tenant name must be 1..100 characters, got " +
        std::to_string(name.size()));
  }
  for (char c : name) {
    if (!ValidNameChar(c)) {
      return Status::InvalidArgument(
          "tenant name may only contain [A-Za-z0-9_-]: \"" + name + "\"");
    }
  }
  return Status::OK();
}

std::string TenantHost::TenantDir(const std::string& name) const {
  return data_dir_ + "/tenants/" + name;
}

Status TenantHost::RecoverAll() {
  const std::string root = data_dir_ + "/tenants";
  DIR* dir = ::opendir(root.c_str());
  if (dir == nullptr) return Status::OK();  // fresh data dir: nothing hosted
  std::vector<std::string> names;
  for (const dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (!ValidateTenantName(name).ok()) continue;  // ".", "..", strays
    names.push_back(name);
  }
  ::closedir(dir);
  // Deterministic recovery order (readdir order is filesystem-dependent).
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string tenant_dir = TenantDir(name);
    if (!FileExists(tenant_dir + "/checkpoint.demon")) continue;
    auto tenant = Tenant::Recover(name, tenant_dir, policy_);
    if (!tenant.ok()) {
      return Status(tenant.status().code(),
                    "recovering tenant " + name + ": " +
                        tenant.status().message());
    }
    MutexLock lock(mutex_);
    tenants_.emplace(name, std::move(tenant).value());
  }
  if (telemetry_ != nullptr) {
    telemetry_->gauge("server/tenants")->Set(static_cast<double>(NumTenants()));
  }
  return Status::OK();
}

Result<TenantStats> TenantHost::CreateTenant(const std::string& name,
                                             uint64_t num_items,
                                             std::vector<MonitorSpec> specs) {
  DEMON_RETURN_NOT_OK(ValidateTenantName(name));
  if (Tenant* existing = FindTenant(name)) {
    return existing->Stats();  // idempotent: the retry after a lost ack
  }
  auto created =
      Tenant::Create(name, TenantDir(name), num_items, std::move(specs),
                     policy_);
  if (!created.ok()) return created.status();
  Tenant* tenant = nullptr;
  {
    MutexLock lock(mutex_);
    // A racing create of the same name may have won; first in wins and
    // the loser's (identical, empty) tenant is discarded.
    auto [it, inserted] =
        tenants_.emplace(name, std::move(created).value());
    tenant = it->second.get();
    if (telemetry_ != nullptr) {
      telemetry_->gauge("server/tenants")
          ->Set(static_cast<double>(tenants_.size()));
    }
  }
  return tenant->Stats();
}

Tenant* TenantHost::FindTenant(const std::string& name) {
  MutexLock lock(mutex_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Result<AppendOutcome> TenantHost::Append(
    const std::string& name, uint64_t first_record_index,
    const std::vector<Transaction>& records) {
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant named \"" + name + "\"");
  }
  return tenant->Append(first_record_index, records, &pool_);
}

Result<TenantStats> TenantHost::FlushTenant(const std::string& name) {
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant named \"" + name + "\"");
  }
  DEMON_RETURN_NOT_OK(tenant->Flush());
  return tenant->Stats();
}

Status TenantHost::FlushAll() {
  // Collect stable pointers under the lock, flush outside it: Flush
  // waits on per-tenant background tasks that run on pool workers, and
  // those must never contend on the host lock to finish.
  std::vector<Tenant*> tenants;
  {
    MutexLock lock(mutex_);
    tenants.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) {
      tenants.push_back(tenant.get());
    }
  }
  Status first_error = Status::OK();
  for (Tenant* tenant : tenants) {
    const Status status = tenant->Flush();
    if (!status.ok() && first_error.ok()) {
      first_error = Status(status.code(), "flushing tenant " +
                                              tenant->name() + ": " +
                                              status.message());
    }
  }
  return first_error;
}

Result<TenantStats> TenantHost::TenantStatsOf(const std::string& name) {
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant named \"" + name + "\"");
  }
  return tenant->Stats();
}

HostStats TenantHost::Stats() {
  std::vector<Tenant*> tenants;
  {
    MutexLock lock(mutex_);
    tenants.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) {
      tenants.push_back(tenant.get());
    }
  }
  HostStats stats;
  stats.num_tenants = tenants.size();
  for (Tenant* tenant : tenants) {
    const TenantStats t = tenant->Stats();
    stats.records_admitted += t.records_admitted;
    stats.records_durable += t.records_durable;
    stats.blocks += t.blocks;
  }
  return stats;
}

size_t TenantHost::NumTenants() {
  MutexLock lock(mutex_);
  return tenants_.size();
}

}  // namespace demon::server
