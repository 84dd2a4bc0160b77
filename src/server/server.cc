#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace demon::server {

namespace {

/// How often WaitForShutdown re-checks its external stop flag.
constexpr uint64_t kShutdownPollNanos = 200ull * 1000 * 1000;

}  // namespace

DemonServer::DemonServer(ServerOptions options)
    : options_(std::move(options)) {}

DemonServer::~DemonServer() { (void)Stop(); }

Status DemonServer::Start() {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("ServerOptions.data_dir must be set");
  }
  host_ = std::make_unique<TenantHost>(options_.data_dir,
                                       options_.num_threads, options_.policy,
                                       &telemetry_);
  DEMON_RETURN_NOT_OK(host_->RecoverAll());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  // The soak harness restarts the server on the same port within
  // milliseconds of a SIGKILL; without address reuse the bind would fail
  // on the predecessor's TIME_WAIT state.
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind to port " + std::to_string(options_.port) +
                           " failed: " + std::strerror(err));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("listen failed: ") +
                           std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("getsockname failed: ") +
                           std::strerror(err));
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  // The accept thread gets the fd by value: Stop() owns listen_fd_ and
  // closes it only after this thread has been joined, so the number can
  // never be reused under a pending accept().
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return Status::OK();
}

void DemonServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop (or a fatal accept error)
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    telemetry_.counter("server/connections")->Increment();
    std::vector<std::thread> done;
    {
      MutexLock lock(mutex_);
      TakeFinishedLocked(&done);
      connection_fds_.push_back(fd);
      connections_.emplace_back([this, fd] { ServeConnection(fd); });
    }
    // A finished thread has nothing left to do but return.
    for (std::thread& t : done) t.join();
  }
}

void DemonServer::TakeFinishedLocked(std::vector<std::thread>* done) {
  for (const std::thread::id id : finished_) {
    for (size_t i = 0; i < connections_.size(); ++i) {
      if (connections_[i].get_id() == id) {
        done->push_back(std::move(connections_[i]));
        connections_.erase(connections_.begin() + i);
        break;
      }
    }
  }
  finished_.clear();
}

size_t DemonServer::RetainedConnectionThreads() const {
  MutexLock lock(mutex_);
  return connections_.size();
}

void DemonServer::ServeConnection(int fd) {
  for (;;) {
    auto payload = ReceiveFramePayload(fd);
    if (!payload.ok()) {
      if (payload.status().code() != StatusCode::kNotFound) {
        // Truncated mid-frame or oversized length prefix: the stream is
        // unframed from here on, so the connection cannot be salvaged.
        telemetry_.counter("server/frames_dropped")->Increment();
      }
      break;
    }
    const uint64_t start_ns = telemetry::NowNanos();
    telemetry_.counter("server/requests")->Increment();
    auto request = DecodeRequestPayload(payload.value());
    Response response;
    bool shutdown_after_reply = false;
    if (!request.ok()) {
      // The frame arrived whole, so the peer keeps its connection: a bad
      // header or version skew earns InvalidArgument, a corrupt body
      // DataLoss — exactly the persistence-layer contract.
      telemetry_.counter("server/requests_rejected")->Increment();
      response = Response::FromStatus(request.status());
    } else {
      response = Handle(request.value(), &shutdown_after_reply);
    }
    const Status sent = SendFrame(fd, EncodeResponseFrame(response));
    telemetry_.histogram("server/request_seconds")
        ->Record(static_cast<double>(telemetry::NowNanos() - start_ns) /
                 1e9);
    if (!sent.ok()) break;
    if (shutdown_after_reply) {
      MutexLock lock(mutex_);
      shutdown_requested_ = true;
      shutdown_cv_.NotifyAll();
      break;
    }
  }
  ::close(fd);
  MutexLock lock(mutex_);
  for (size_t i = 0; i < connection_fds_.size(); ++i) {
    if (connection_fds_[i] == fd) {
      connection_fds_.erase(connection_fds_.begin() + i);
      break;
    }
  }
  finished_.push_back(std::this_thread::get_id());
}

Response DemonServer::Handle(const Request& request,
                             bool* shutdown_after_reply) {
  Response response;
  switch (request.type) {
    case MsgType::kPing:
      response.num_tenants = host_->NumTenants();
      break;
    case MsgType::kCreateTenant: {
      auto stats = host_->CreateTenant(request.tenant, request.num_items,
                                       request.specs);
      if (!stats.ok()) return Response::FromStatus(stats.status());
      response.records_admitted = stats.value().records_admitted;
      response.records_durable = stats.value().records_durable;
      response.blocks = stats.value().blocks;
      break;
    }
    case MsgType::kAppendBatch: {
      auto outcome = host_->Append(request.tenant,
                                   request.first_record_index,
                                   request.transactions);
      if (!outcome.ok()) return Response::FromStatus(outcome.status());
      telemetry_.counter("server/records_admitted")
          ->Add(outcome.value().accepted);
      telemetry_.counter("server/records_deduplicated")
          ->Add(outcome.value().deduplicated);
      response.records_admitted = outcome.value().stats.records_admitted;
      response.records_durable = outcome.value().stats.records_durable;
      response.blocks = outcome.value().stats.blocks;
      break;
    }
    case MsgType::kFlushTenant: {
      auto stats = host_->FlushTenant(request.tenant);
      if (!stats.ok()) return Response::FromStatus(stats.status());
      response.records_admitted = stats.value().records_admitted;
      response.records_durable = stats.value().records_durable;
      response.blocks = stats.value().blocks;
      break;
    }
    case MsgType::kFlushAll: {
      const Status status = host_->FlushAll();
      if (!status.ok()) return Response::FromStatus(status);
      const HostStats stats = host_->Stats();
      response.num_tenants = stats.num_tenants;
      response.records_admitted = stats.records_admitted;
      response.records_durable = stats.records_durable;
      response.blocks = stats.blocks;
      break;
    }
    case MsgType::kStats: {
      if (request.tenant.empty()) {
        const HostStats stats = host_->Stats();
        response.num_tenants = stats.num_tenants;
        response.records_admitted = stats.records_admitted;
        response.records_durable = stats.records_durable;
        response.blocks = stats.blocks;
      } else {
        auto stats = host_->TenantStatsOf(request.tenant);
        if (!stats.ok()) return Response::FromStatus(stats.status());
        response.records_admitted = stats.value().records_admitted;
        response.records_durable = stats.value().records_durable;
        response.blocks = stats.value().blocks;
      }
      break;
    }
    case MsgType::kShutdown: {
      // Everything admitted becomes durable before the reply goes out:
      // an acknowledged shutdown promises nothing is left to lose.
      const Status status = host_->FlushAll();
      if (!status.ok()) return Response::FromStatus(status);
      response.num_tenants = host_->NumTenants();
      *shutdown_after_reply = true;
      break;
    }
  }
  return response;
}

void DemonServer::WaitForShutdown(const std::atomic<bool>* external_stop) {
  MutexLock lock(mutex_);
  while (!shutdown_requested_) {
    if (external_stop != nullptr &&
        external_stop->load(std::memory_order_acquire)) {
      return;
    }
    (void)shutdown_cv_.WaitFor(mutex_, kShutdownPollNanos);
  }
}

Status DemonServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    return Status::OK();  // already stopped
  }
  // shutdown() wakes the blocked accept(); the fd is closed only once the
  // accept thread is gone.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> connections;
  {
    MutexLock lock(mutex_);
    // Unblock every in-flight read; the owning threads observe EOF, close
    // their fds and remove themselves from connection_fds_.
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(connections_);
    finished_.clear();
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  if (host_ != nullptr) return host_->FlushAll();
  return Status::OK();
}

}  // namespace demon::server
