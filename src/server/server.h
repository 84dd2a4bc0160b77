#ifndef DEMON_SERVER_SERVER_H_
#define DEMON_SERVER_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/telemetry.h"
#include "server/tenant_host.h"
#include "server/wire.h"

namespace demon::server {

struct ServerOptions {
  /// Root of the hosted state; tenants live under `<data_dir>/tenants/`.
  std::string data_dir;
  /// TCP port to listen on; 0 binds an ephemeral port (see `port()`).
  uint16_t port = 0;
  /// Workers in the shared flush pool.
  size_t num_threads = 4;
  TenantPolicy policy;
};

/// \brief The demon_serve daemon core: a TCP listener speaking the wire
/// protocol of `server/wire.h`, one handler thread per connection, all
/// tenants hosted by one TenantHost.
///
/// Error handling per connection follows the wire contract: a payload
/// with a bad header or version gets a clean InvalidArgument reply and
/// the connection lives on; a frame the socket truncates (or whose
/// length prefix is oversized) drops the connection and is accounted
/// under `server/frames_dropped`. A kShutdown request flushes every
/// tenant durably, replies, and resolves `WaitForShutdown`.
class DemonServer {
 public:
  explicit DemonServer(ServerOptions options);
  ~DemonServer();

  DemonServer(const DemonServer&) = delete;
  DemonServer& operator=(const DemonServer&) = delete;

  /// Recovers every tenant from `data_dir`, binds the listener and
  /// starts accepting. Returns once the server is reachable.
  [[nodiscard]] Status Start();

  /// The bound port (resolves option `port == 0` to the actual port).
  uint16_t port() const { return port_; }

  /// Blocks until a kShutdown request arrives or `Stop` is called from
  /// another thread. `external_stop`, when set, is polled so a signal
  /// handler flag (SIGINT/SIGTERM in demon_serve) can end the wait.
  void WaitForShutdown(const std::atomic<bool>* external_stop = nullptr)
      DEMON_EXCLUDES(mutex_);

  /// Stops accepting, unblocks and joins every connection thread, and
  /// flushes all tenants durably (the returned status is that final
  /// flush). Idempotent.
  [[nodiscard]] Status Stop();

  telemetry::TelemetryRegistry* telemetry() { return &telemetry_; }
  TenantHost* host() { return host_.get(); }

  /// Connection thread handles the server still holds: live connections
  /// plus finished ones not yet joined. Each accept joins the finished
  /// ones, so a long-lived server holds about as many handles as it has
  /// open connections, not one per connection it ever served.
  size_t RetainedConnectionThreads() const DEMON_EXCLUDES(mutex_);

 private:
  void AcceptLoop(int listen_fd);
  void ServeConnection(int fd);
  /// Moves the finished connections' threads out of connections_ into
  /// `*done`, for the caller to join once it has released the mutex.
  void TakeFinishedLocked(std::vector<std::thread>* done)
      DEMON_REQUIRES(mutex_);
  /// Dispatches one decoded request. `*shutdown_after_reply` is set for
  /// kShutdown so the caller sends the reply *before* the server begins
  /// tearing connections down.
  Response Handle(const Request& request, bool* shutdown_after_reply);

  const ServerOptions options_;
  telemetry::TelemetryRegistry telemetry_;
  std::unique_ptr<TenantHost> host_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  mutable Mutex mutex_;
  CondVar shutdown_cv_;
  bool shutdown_requested_ DEMON_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> connections_ DEMON_GUARDED_BY(mutex_);
  /// Ids of connection threads that have finished serving and only await
  /// a join.
  std::vector<std::thread::id> finished_ DEMON_GUARDED_BY(mutex_);
  /// Open connection fds, so Stop can shut them down to unblock reads.
  std::vector<int> connection_fds_ DEMON_GUARDED_BY(mutex_);
};

}  // namespace demon::server

#endif  // DEMON_SERVER_SERVER_H_
