#ifndef DEMON_SERVER_TENANT_HOST_H_
#define DEMON_SERVER_TENANT_HOST_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "server/tenant.h"

namespace demon::server {

/// Host-wide counters, as reported by `Stats("")`.
struct HostStats {
  uint64_t num_tenants = 0;
  uint64_t records_admitted = 0;
  uint64_t records_durable = 0;
  uint64_t blocks = 0;
};

/// \brief The multi-tenant layer: a directory of independent Tenants
/// sharing one ThreadPool (and its parallelism-token budget) for their
/// background flushes.
///
/// Tenants live under `<data_dir>/tenants/<name>/` and are never removed
/// once created, so the pointers handed out under `mutex_` stay valid for
/// the host's lifetime and per-tenant work proceeds without the host
/// lock. `RecoverAll` (called by the server at startup) re-opens every
/// tenant directory holding a checkpoint, which is the entire crash
/// recovery story: checkpoint + WAL replay per tenant.
class TenantHost {
 public:
  TenantHost(std::string data_dir, size_t num_threads, TenantPolicy policy,
             telemetry::TelemetryRegistry* telemetry);

  /// Scans the tenants directory and recovers every tenant with a
  /// checkpoint. Directories without one (a crash before the initial
  /// checkpoint completed) are skipped; the tenant was never
  /// acknowledged as created.
  [[nodiscard]] Status RecoverAll() DEMON_EXCLUDES(mutex_);

  /// Creates a tenant, or — when it already exists (a client retrying
  /// after a crash or a lost ack) — succeeds idempotently, returning the
  /// existing tenant's stats so the client can resume its cursor.
  /// `num_items` and `specs` are only consulted on first creation.
  [[nodiscard]] Result<TenantStats> CreateTenant(
      const std::string& name, uint64_t num_items,
      std::vector<MonitorSpec> specs) DEMON_EXCLUDES(mutex_);

  [[nodiscard]] Result<AppendOutcome> Append(
      const std::string& name, uint64_t first_record_index,
      const std::vector<Transaction>& records) DEMON_EXCLUDES(mutex_);

  /// Seals everything the tenant has staged and checkpoints it.
  [[nodiscard]] Result<TenantStats> FlushTenant(const std::string& name)
      DEMON_EXCLUDES(mutex_);

  /// FlushTenant over every tenant; the first error wins but every
  /// tenant is still attempted (a wedged tenant must not leave its
  /// siblings unflushed on shutdown).
  [[nodiscard]] Status FlushAll() DEMON_EXCLUDES(mutex_);

  [[nodiscard]] Result<TenantStats> TenantStatsOf(const std::string& name)
      DEMON_EXCLUDES(mutex_);
  HostStats Stats() DEMON_EXCLUDES(mutex_);

  size_t NumTenants() DEMON_EXCLUDES(mutex_);

  /// Valid tenant names: 1..100 chars of [A-Za-z0-9_-]. Tenant names
  /// become directory names, so this is the path-traversal guard.
  [[nodiscard]] static Status ValidateTenantName(const std::string& name);

  const std::string& data_dir() const { return data_dir_; }
  ThreadPool* pool() { return &pool_; }

 private:
  Tenant* FindTenant(const std::string& name) DEMON_EXCLUDES(mutex_);
  std::string TenantDir(const std::string& name) const;

  const std::string data_dir_;
  const TenantPolicy policy_;
  ThreadPool pool_;
  telemetry::TelemetryRegistry* const telemetry_;

  Mutex mutex_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_
      DEMON_GUARDED_BY(mutex_);
};

}  // namespace demon::server

#endif  // DEMON_SERVER_TENANT_HOST_H_
