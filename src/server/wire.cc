#include "server/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "persistence/serializer.h"

namespace demon::server {

namespace {

using persistence::FileHeader;
using persistence::FormatId;
using persistence::Reader;
using persistence::Writer;

/// Ceiling on monitors per CreateTenant — far above any real deployment,
/// low enough that a corrupt count cannot drive a long decode loop.
constexpr uint64_t kMaxSpecsPerTenant = 64;

/// The checkpoint payload layout version SaveMonitorSpec currently writes;
/// LoadMonitorSpec takes it to know which optional fields are present.
constexpr uint32_t kSpecLayoutVersion = 2;

bool KnownMsgType(uint8_t v) {
  return v >= static_cast<uint8_t>(MsgType::kPing) &&
         v <= static_cast<uint8_t>(MsgType::kShutdown);
}

bool KnownStatusCode(uint8_t v) {
  return v <= static_cast<uint8_t>(StatusCode::kDataLoss);
}

std::string FinishFrame(const Writer& payload) {
  const uint32_t bytes = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(sizeof(bytes) + payload.size());
  frame.append(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
  frame.append(payload.buffer());
  return frame;
}

void AppendWireHeader(Writer& w, FormatId format) {
  FileHeader::Append(w, format, kWireVersion);
}

/// Reads `n` bytes from `fd` into `out`. `eof_at_start_ok` distinguishes
/// the clean end of a conversation (peer closed between frames) from a
/// frame the connection truncated.
Status ReadExact(int fd, void* out, size_t n, bool eof_at_start_ok) {
  char* cursor = static_cast<char*>(out);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, cursor + got, n - got, 0);
    if (r == 0) {
      if (got == 0 && eof_at_start_ok) {
        return Status::NotFound("connection closed");
      }
      return Status::DataLoss("connection closed mid-frame (" +
                              std::to_string(got) + " of " +
                              std::to_string(n) + " bytes)");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

const char* MsgTypeToString(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kCreateTenant:
      return "create-tenant";
    case MsgType::kAppendBatch:
      return "append-batch";
    case MsgType::kFlushTenant:
      return "flush-tenant";
    case MsgType::kFlushAll:
      return "flush-all";
    case MsgType::kStats:
      return "stats";
    case MsgType::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

Status Response::ToStatus() const {
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, message);
}

Response Response::FromStatus(const Status& status) {
  Response response;
  response.code = status.code();
  response.message = status.message();
  return response;
}

std::string EncodeRequestFrame(const Request& request) {
  Writer w;
  AppendWireHeader(w, FormatId::kWireRequest);
  w.WriteU8(static_cast<uint8_t>(request.type));
  switch (request.type) {
    case MsgType::kPing:
    case MsgType::kFlushAll:
    case MsgType::kShutdown:
      break;
    case MsgType::kCreateTenant:
      w.WriteString(request.tenant);
      w.WriteU64(request.num_items);
      w.WriteU64(request.specs.size());
      for (const MonitorSpec& spec : request.specs) SaveMonitorSpec(w, spec);
      break;
    case MsgType::kAppendBatch:
      w.WriteString(request.tenant);
      w.WriteU64(request.first_record_index);
      w.WriteU64(request.transactions.size());
      for (const Transaction& t : request.transactions) {
        w.WriteU32Vector(t.items());
      }
      break;
    case MsgType::kFlushTenant:
    case MsgType::kStats:
      w.WriteString(request.tenant);
      break;
  }
  return FinishFrame(w);
}

std::string EncodeResponseFrame(const Response& response) {
  Writer w;
  AppendWireHeader(w, FormatId::kWireResponse);
  w.WriteU8(static_cast<uint8_t>(response.code));
  w.WriteString(response.message);
  w.WriteU64(response.records_admitted);
  w.WriteU64(response.records_durable);
  w.WriteU64(response.blocks);
  w.WriteU64(response.num_tenants);
  return FinishFrame(w);
}

Result<Request> DecodeRequestPayload(const std::string& payload) {
  Reader r(payload);
  DEMON_RETURN_NOT_OK(FileHeader::Consume(r, FormatId::kWireRequest,
                                          kWireVersion, "wire request")
                          .status());
  const uint8_t type_byte = r.ReadU8();
  if (r.ok() && !KnownMsgType(type_byte)) {
    return Status::InvalidArgument("unknown request message type " +
                                   std::to_string(type_byte));
  }
  Request request;
  request.type = static_cast<MsgType>(type_byte);
  switch (request.type) {
    case MsgType::kPing:
    case MsgType::kFlushAll:
    case MsgType::kShutdown:
      break;
    case MsgType::kCreateTenant: {
      request.tenant = r.ReadString();
      request.num_items = r.ReadU64();
      const uint64_t num_specs = r.ReadU64();
      if (r.ok() && num_specs > kMaxSpecsPerTenant) {
        return Status::DataLoss("create-tenant carries " +
                                std::to_string(num_specs) +
                                " specs (limit " +
                                std::to_string(kMaxSpecsPerTenant) + ")");
      }
      for (uint64_t i = 0; r.ok() && i < num_specs; ++i) {
        auto spec = LoadMonitorSpec(r, kSpecLayoutVersion);
        if (!spec.ok()) return spec.status();
        request.specs.push_back(std::move(spec).value());
      }
      break;
    }
    case MsgType::kAppendBatch: {
      request.tenant = r.ReadString();
      request.first_record_index = r.ReadU64();
      // Each transaction occupies at least its own length prefix, so the
      // remaining byte count bounds a sane record count.
      const uint64_t num_records = r.ReadLength(sizeof(uint64_t));
      request.transactions.reserve(num_records);
      for (uint64_t i = 0; r.ok() && i < num_records; ++i) {
        request.transactions.emplace_back(r.ReadU32Vector());
      }
      break;
    }
    case MsgType::kFlushTenant:
    case MsgType::kStats:
      request.tenant = r.ReadString();
      break;
  }
  DEMON_RETURN_NOT_OK(r.status());
  if (!r.AtEnd()) {
    return Status::DataLoss("wire request: " + std::to_string(r.remaining()) +
                            " trailing bytes after the message body");
  }
  return request;
}

Result<Response> DecodeResponsePayload(const std::string& payload) {
  Reader r(payload);
  DEMON_RETURN_NOT_OK(FileHeader::Consume(r, FormatId::kWireResponse,
                                          kWireVersion, "wire response")
                          .status());
  const uint8_t code_byte = r.ReadU8();
  if (r.ok() && !KnownStatusCode(code_byte)) {
    return Status::DataLoss("wire response carries unknown status code " +
                            std::to_string(code_byte));
  }
  Response response;
  response.code = static_cast<StatusCode>(code_byte);
  response.message = r.ReadString();
  response.records_admitted = r.ReadU64();
  response.records_durable = r.ReadU64();
  response.blocks = r.ReadU64();
  response.num_tenants = r.ReadU64();
  DEMON_RETURN_NOT_OK(r.status());
  if (!r.AtEnd()) {
    return Status::DataLoss("wire response: " + std::to_string(r.remaining()) +
                            " trailing bytes after the message body");
  }
  return response;
}

Status SendFrame(int fd, const std::string& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that died mid-conversation must surface as an
    // IoError on this call, not as a process-killing SIGPIPE.
    const ssize_t w =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<std::string> ReceiveFramePayload(int fd) {
  uint32_t bytes = 0;
  DEMON_RETURN_NOT_OK(
      ReadExact(fd, &bytes, sizeof(bytes), /*eof_at_start_ok=*/true));
  if (bytes > kMaxFramePayloadBytes) {
    return Status::DataLoss("frame length " + std::to_string(bytes) +
                            " exceeds the " +
                            std::to_string(kMaxFramePayloadBytes) +
                            "-byte payload limit");
  }
  std::string payload(bytes, '\0');
  DEMON_RETURN_NOT_OK(
      ReadExact(fd, payload.data(), bytes, /*eof_at_start_ok=*/false));
  return payload;
}

Status ClientConnection::Connect(const std::string& host, uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect to " + host + ":" + std::to_string(port) +
                           " failed: " + std::strerror(err));
  }
  const int one = 1;
  // Request/response round trips; Nagle would serialize them at 40ms each.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

Result<Response> ClientConnection::Call(const Request& request) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  DEMON_RETURN_NOT_OK(SendFrame(fd_, EncodeRequestFrame(request)));
  auto payload = ReceiveFramePayload(fd_);
  if (!payload.ok()) return payload.status();
  return DecodeResponsePayload(payload.value());
}

void ClientConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace demon::server
