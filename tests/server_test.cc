// Tests for the demon_serve wire protocol and the multi-tenant server:
// frame codec round-trips, the truncation/corruption error taxonomy
// (DataLoss vs InvalidArgument, never UB), socket framing over a
// socketpair, and end-to-end serving — including the tentpole invariant
// that concurrent tenants driven through sockets checkpoint byte-identical
// to a serial in-process replay of the same record streams.

#include <arpa/inet.h>
#include <fcntl.h>
#include <ftw.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/demon_monitor.h"
#include "gtest/gtest.h"
#include "server/server.h"
#include "server/tenant.h"
#include "server/wire.h"

namespace demon::server {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

int RemoveEntry(const char* path, const struct stat*, int,
                struct FTW*) {
  return ::remove(path);
}

/// `rm -rf`: TempDir() persists across test-binary runs, so every server
/// test must start from a data dir it knows is empty.
void RemoveTree(const std::string& path) {
  ::nftw(path.c_str(), RemoveEntry, 16, FTW_DEPTH | FTW_PHYS);
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string bytes;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

/// The payload of an encoded frame (strips the u32 length prefix).
std::string PayloadOf(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return frame.substr(4);
}

MonitorSpec ItemsetSpec(double minsup) {
  MonitorSpec spec;
  spec.kind = MonitorKind::kUnrestrictedItemsets;
  spec.name = "itemsets";
  spec.minsup = minsup;
  return spec;
}

/// Record `index` of tenant `tenant_index`: the same pure function of
/// (seed, tenant, index) demon_load uses, so tests can replay any suffix.
Transaction MakeRecord(uint64_t seed, uint64_t tenant_index, uint64_t index) {
  Rng rng(seed ^ (tenant_index + 1) * 0x9E3779B97F4A7C15ULL ^
          (index + 1) * 0xBF58476D1CE4E5B9ULL);
  const size_t size = 2 + static_cast<size_t>(rng.NextUint64(6));
  std::vector<Item> items;
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<Item>(rng.NextUint64(32)));
  }
  return Transaction(std::move(items));
}

Request MakeAppend(const std::string& tenant, uint64_t first,
                   uint64_t count) {
  Request request;
  request.type = MsgType::kAppendBatch;
  request.tenant = tenant;
  request.first_record_index = first;
  for (uint64_t i = 0; i < count; ++i) {
    request.transactions.push_back(MakeRecord(7, 0, first + i));
  }
  return request;
}

// --------------------------------------------------------------------------
// Frame codec.

TEST(WireCodec, RequestRoundTripsEveryType) {
  Request create;
  create.type = MsgType::kCreateTenant;
  create.tenant = "acme";
  create.num_items = 128;
  create.specs.push_back(ItemsetSpec(0.25));

  Request append = MakeAppend("acme", 40, 3);

  Request flush;
  flush.type = MsgType::kFlushTenant;
  flush.tenant = "acme";

  Request stats;
  stats.type = MsgType::kStats;
  stats.tenant = "";

  for (const Request& request :
       {Request{}, create, append, flush, Request{MsgType::kFlushAll},
        stats, Request{MsgType::kShutdown}}) {
    auto decoded =
        DecodeRequestPayload(PayloadOf(EncodeRequestFrame(request)));
    ASSERT_TRUE(decoded.ok())
        << MsgTypeToString(request.type) << ": "
        << decoded.status().ToString();
    const Request& got = decoded.value();
    EXPECT_EQ(got.type, request.type);
    EXPECT_EQ(got.tenant, request.tenant);
    EXPECT_EQ(got.num_items, request.num_items);
    EXPECT_EQ(got.first_record_index, request.first_record_index);
    ASSERT_EQ(got.specs.size(), request.specs.size());
    for (size_t i = 0; i < got.specs.size(); ++i) {
      EXPECT_EQ(got.specs[i].kind, request.specs[i].kind);
      EXPECT_EQ(got.specs[i].name, request.specs[i].name);
      EXPECT_DOUBLE_EQ(got.specs[i].minsup, request.specs[i].minsup);
    }
    ASSERT_EQ(got.transactions.size(), request.transactions.size());
    for (size_t i = 0; i < got.transactions.size(); ++i) {
      EXPECT_EQ(got.transactions[i].items(),
                request.transactions[i].items());
    }
  }
}

TEST(WireCodec, ResponseRoundTrips) {
  Response response;
  response.code = StatusCode::kDataLoss;
  response.message = "wal torn";
  response.records_admitted = 11;
  response.records_durable = 10;
  response.blocks = 2;
  response.num_tenants = 3;
  auto decoded =
      DecodeResponsePayload(PayloadOf(EncodeResponseFrame(response)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().code, StatusCode::kDataLoss);
  EXPECT_EQ(decoded.value().message, "wal torn");
  EXPECT_EQ(decoded.value().records_admitted, 11u);
  EXPECT_EQ(decoded.value().records_durable, 10u);
  EXPECT_EQ(decoded.value().blocks, 2u);
  EXPECT_EQ(decoded.value().num_tenants, 3u);
  EXPECT_FALSE(decoded.value().ok());
  EXPECT_EQ(decoded.value().ToStatus().code(), StatusCode::kDataLoss);
}

TEST(WireCodec, TruncationAtEveryPrefixIsCleanlyRejected) {
  const std::string payload =
      PayloadOf(EncodeRequestFrame(MakeAppend("acme", 0, 5)));
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = DecodeRequestPayload(payload.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << decoded.status().ToString();
  }
}

TEST(WireCodec, TrailingGarbageIsDataLoss) {
  std::string payload = PayloadOf(EncodeRequestFrame(Request{}));
  payload += '\x00';
  auto decoded = DecodeRequestPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(WireCodec, HeaderSkewIsInvalidArgument) {
  const std::string good = PayloadOf(EncodeRequestFrame(Request{}));

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  auto decoded = DecodeRequestPayload(bad_magic);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // A response payload where a request is expected: wrong format id.
  const std::string response_payload =
      PayloadOf(EncodeResponseFrame(Response{}));
  decoded = DecodeRequestPayload(response_payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // Version newer than this build speaks (u32 LE at header offset 12).
  std::string future = good;
  const uint32_t version = kWireVersion + 1;
  std::memcpy(&future[12], &version, sizeof(version));
  decoded = DecodeRequestPayload(future);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodec, UnknownMessageTypeIsInvalidArgument) {
  std::string payload = PayloadOf(EncodeRequestFrame(Request{}));
  payload[persistence::FileHeader::kBytes] = '\xc8';  // type 200
  auto decoded = DecodeRequestPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodec, OversizedRecordCountIsDataLossNotAllocation) {
  // An intact frame whose body claims 2^32-ish records but carries none:
  // the decoder must bound-check the count against the remaining bytes
  // instead of trusting it.
  std::string payload =
      PayloadOf(EncodeRequestFrame(MakeAppend("acme", 0, 1)));
  // The record count is a varint-free u64 right after tenant and cursor;
  // simplest robust corruption: truncate the last transaction's bytes.
  payload.resize(payload.size() - 3);
  auto decoded = DecodeRequestPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// --------------------------------------------------------------------------
// Socket framing.

TEST(TenantStaging, StraddlingAppendsSealTheBlocksOfTheRecordStream) {
  // Batches straddle the 5-record block boundary (one resends an overlap)
  // and a Flush seals the partial tail; the sealed blocks must equal the
  // blocks built directly from the same records.
  const std::string dir = TempPath("tenant_staging");
  RemoveTree(dir);
  TenantPolicy policy;
  policy.flush_records = 5;
  policy.checkpoint_blocks = 100;
  auto created = Tenant::Create("acme", dir, 32, {ItemsetSpec(0.3)}, policy);
  ASSERT_TRUE(created.ok()) << created.status();
  Tenant& tenant = *created.value();
  std::vector<Transaction> stream;
  for (uint64_t i = 0; i < 14; ++i) stream.push_back(MakeRecord(7, 0, i));
  const auto batch = [&stream](uint64_t first, uint64_t last) {
    return std::vector<Transaction>(stream.begin() + first,
                                    stream.begin() + last);
  };
  const std::pair<uint64_t, uint64_t> batches[] = {
      {0, 3}, {3, 8}, {6, 12}, {12, 14}};
  for (const auto& [first, last] : batches) {
    auto appended = tenant.Append(first, batch(first, last), nullptr);
    ASSERT_TRUE(appended.ok()) << appended.status();
  }
  EXPECT_EQ(tenant.Stats().records_durable, 10u);  // two full blocks
  ASSERT_TRUE(tenant.Flush().ok());
  const TenantStats stats = tenant.Stats();
  EXPECT_EQ(stats.records_admitted, 14u);
  EXPECT_EQ(stats.records_durable, 14u);
  ASSERT_EQ(stats.blocks, 3u);

  auto restored = DemonMonitor::Restore(tenant.CheckpointPath());
  ASSERT_TRUE(restored.ok()) << restored.status();
  const auto& snapshot = restored.value()->snapshot();
  for (BlockId id = 1; id <= 3; ++id) {
    const uint64_t first = (id - 1) * 5;
    const uint64_t last = std::min<uint64_t>(first + 5, stream.size());
    EXPECT_EQ(*snapshot.block(id)->Transactions(),
              TransactionBlock(batch(first, last), first))
        << "block " << id;
  }
  RemoveTree(dir);
}

TEST(SocketFraming, FrameRoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Request request = MakeAppend("acme", 3, 2);
  ASSERT_TRUE(SendFrame(fds[0], EncodeRequestFrame(request)).ok());
  auto payload = ReceiveFramePayload(fds[1]);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto decoded = DecodeRequestPayload(payload.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().first_record_index, 3u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketFraming, CleanCloseAtBoundaryIsNotFound) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  auto payload = ReceiveFramePayload(fds[1]);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kNotFound);
  ::close(fds[1]);
}

TEST(SocketFraming, MidFrameCloseIsDataLoss) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string frame = EncodeRequestFrame(Request{});
  // Half the frame, then close: the receiver is mid-payload.
  ASSERT_EQ(::send(fds[0], frame.data(), frame.size() / 2, 0),
            static_cast<ssize_t>(frame.size() / 2));
  ::close(fds[0]);
  auto payload = ReceiveFramePayload(fds[1]);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kDataLoss);
  ::close(fds[1]);
}

TEST(SocketFraming, OversizedLengthPrefixIsDataLoss) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const uint32_t huge = kMaxFramePayloadBytes + 1;
  ASSERT_EQ(::send(fds[0], &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  auto payload = ReceiveFramePayload(fds[1]);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kDataLoss);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --------------------------------------------------------------------------
// End-to-end server.

class ServerTest : public testing::Test {
 protected:
  /// Starts a server on an ephemeral port over a fresh data dir.
  void StartServer(const std::string& dir_name, uint64_t flush_records = 8,
                   uint64_t checkpoint_blocks = 2) {
    options_.data_dir = TempPath(dir_name);
    RemoveTree(options_.data_dir);
    options_.port = 0;
    options_.num_threads = 4;
    options_.policy.flush_records = flush_records;
    options_.policy.checkpoint_blocks = checkpoint_blocks;
    server_ = std::make_unique<DemonServer>(options_);
    ASSERT_TRUE(server_->Start().ok());
  }

  Response MustCall(ClientConnection& connection, const Request& request) {
    auto response = connection.Call(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : Response{};
  }

  Response CreateTenant(ClientConnection& connection,
                        const std::string& name, double minsup = 0.3) {
    Request create;
    create.type = MsgType::kCreateTenant;
    create.tenant = name;
    create.num_items = 32;
    create.specs.push_back(ItemsetSpec(minsup));
    return MustCall(connection, create);
  }

  ServerOptions options_;
  std::unique_ptr<DemonServer> server_;
};

TEST_F(ServerTest, PingCreateAppendStats) {
  StartServer("server_basic");
  ClientConnection connection;
  ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());

  EXPECT_TRUE(MustCall(connection, Request{MsgType::kPing}).ok());
  EXPECT_TRUE(CreateTenant(connection, "acme").ok());

  Request append = MakeAppend("acme", 0, 20);
  Response appended = MustCall(connection, append);
  EXPECT_TRUE(appended.ok()) << appended.message;
  EXPECT_EQ(appended.records_admitted, 20u);

  Request flush;
  flush.type = MsgType::kFlushTenant;
  flush.tenant = "acme";
  Response flushed = MustCall(connection, flush);
  EXPECT_TRUE(flushed.ok()) << flushed.message;
  EXPECT_EQ(flushed.records_durable, 20u);
  EXPECT_EQ(flushed.blocks, 3u);  // 8 + 8 + 4 at flush_records=8

  Request stats;
  stats.type = MsgType::kStats;
  Response host_stats = MustCall(connection, stats);
  EXPECT_EQ(host_stats.num_tenants, 1u);
  ASSERT_TRUE(server_->Stop().ok());
}

// A long-lived server joins finished connection threads as it accepts new
// ones: a thousand short connections, one after another, leave a bounded
// number of thread handles behind rather than a thousand.
TEST_F(ServerTest, SequentialConnectionsAreReaped) {
  StartServer("server_reap");
  constexpr int kConnections = 1000;
  size_t most_retained = 0;
  for (int i = 0; i < kConnections; ++i) {
    ClientConnection connection;
    ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());
    EXPECT_TRUE(MustCall(connection, Request{MsgType::kPing}).ok());
    connection.Close();
    most_retained =
        std::max(most_retained, server_->RetainedConnectionThreads());
  }
  // Each accept reaps every connection that had finished by then; only
  // threads still winding down after their client's close remain.
  EXPECT_LE(most_retained, 64u);
  EXPECT_EQ(server_->telemetry()->counter("server/connections")->value(),
            static_cast<uint64_t>(kConnections));
  ASSERT_TRUE(server_->Stop().ok());
  EXPECT_EQ(server_->RetainedConnectionThreads(), 0u);
}

TEST_F(ServerTest, BadTenantNamesAndGapsAreRejected) {
  StartServer("server_reject");
  ClientConnection connection;
  ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());

  EXPECT_EQ(CreateTenant(connection, "../escape").code,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CreateTenant(connection, "").code,
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(CreateTenant(connection, "acme").ok());
  // A batch starting beyond the cursor is a gap: rejecting it is what
  // keeps at-least-once delivery from silently losing records.
  Response gap = MustCall(connection, MakeAppend("acme", 10, 2));
  EXPECT_EQ(gap.code, StatusCode::kInvalidArgument);
  // Appending to a tenant that does not exist.
  Response missing = MustCall(connection, MakeAppend("ghost", 0, 1));
  EXPECT_EQ(missing.code, StatusCode::kNotFound);
  ASSERT_TRUE(server_->Stop().ok());
}

TEST_F(ServerTest, CorruptFrameEarnsReplyAndConnectionSurvives) {
  StartServer("server_corrupt");
  ClientConnection connection;
  ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());
  // Reach under the client abstraction: send an intact frame whose
  // payload is garbage, by hijacking a raw socketpair-style send on the
  // client's behalf through a second raw connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)), 0);

  // Intact frame, garbage payload: server must reply InvalidArgument.
  const std::string garbage = "not a demon frame at all";
  const uint32_t len = static_cast<uint32_t>(garbage.size());
  std::string frame(reinterpret_cast<const char*>(&len), sizeof(len));
  frame += garbage;
  ASSERT_TRUE(SendFrame(fd, frame).ok());
  auto reply = ReceiveFramePayload(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto decoded = DecodeResponsePayload(reply.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, StatusCode::kInvalidArgument);

  // Same connection still serves valid requests.
  ASSERT_TRUE(SendFrame(fd, EncodeRequestFrame(Request{})).ok());
  reply = ReceiveFramePayload(fd);
  ASSERT_TRUE(reply.ok());
  decoded = DecodeResponsePayload(reply.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().ok());

  // A version-skewed but otherwise valid request: clean rejection too.
  std::string skewed_frame = EncodeRequestFrame(Request{});
  const uint32_t future_version = kWireVersion + 1;
  std::memcpy(&skewed_frame[4 + 12], &future_version,
              sizeof(future_version));
  ASSERT_TRUE(SendFrame(fd, skewed_frame).ok());
  reply = ReceiveFramePayload(fd);
  ASSERT_TRUE(reply.ok());
  decoded = DecodeResponsePayload(reply.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().code, StatusCode::kInvalidArgument);

  ::close(fd);
  ASSERT_TRUE(server_->Stop().ok());
  EXPECT_EQ(server_->telemetry()->counter("server/requests_rejected")
                ->value(), 2u);
}

TEST_F(ServerTest, ConcurrentTenantsMatchSerialReplayByteForByte) {
  constexpr uint64_t kTenants = 6;
  constexpr uint64_t kRecords = 45;  // 5 full blocks of 8 + partial of 5
  constexpr uint64_t kSeed = 99;
  StartServer("server_identity");

  // Drive every tenant concurrently, two tenants per connection, batches
  // of 7 so block cuts never align with request boundaries.
  std::vector<std::thread> workers;
  for (uint64_t w = 0; w < 3; ++w) {
    workers.emplace_back([this, w] {
      ClientConnection connection;
      ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());
      for (uint64_t t = w; t < kTenants; t += 3) {
        const std::string name = "tenant" + std::to_string(t);
        ASSERT_TRUE(CreateTenant(connection, name).ok());
        uint64_t cursor = 0;
        while (cursor < kRecords) {
          const uint64_t n = std::min<uint64_t>(7, kRecords - cursor);
          Request append;
          append.type = MsgType::kAppendBatch;
          append.tenant = name;
          append.first_record_index = cursor;
          for (uint64_t i = 0; i < n; ++i) {
            append.transactions.push_back(MakeRecord(kSeed, t, cursor + i));
          }
          Response response = MustCall(connection, append);
          ASSERT_TRUE(response.ok()) << response.message;
          cursor = response.records_admitted;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  ClientConnection connection;
  ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());
  Response flushed = MustCall(connection, Request{MsgType::kFlushAll});
  ASSERT_TRUE(flushed.ok()) << flushed.message;
  EXPECT_EQ(flushed.records_durable, kTenants * kRecords);
  ASSERT_TRUE(server_->Stop().ok());

  // Serial replay: one local monitor per tenant, blocks cut exactly as
  // the tenant policy dictates, one final checkpoint. The server-side
  // checkpoint — written under concurrent socket traffic and background
  // flushes — must match byte for byte.
  for (uint64_t t = 0; t < kTenants; ++t) {
    DemonMonitor local(32);
    ASSERT_TRUE(local.AddMonitor(ItemsetSpec(0.3)).ok());
    uint64_t durable = 0;
    while (durable < kRecords) {
      const uint64_t n =
          std::min<uint64_t>(options_.policy.flush_records,
                             kRecords - durable);
      std::vector<Transaction> records;
      for (uint64_t i = 0; i < n; ++i) {
        records.push_back(MakeRecord(kSeed, t, durable + i));
      }
      local.AddBlock(TransactionBlock(std::move(records), durable));
      durable += n;
    }
    const std::string reference =
        TempPath("server_identity_ref" + std::to_string(t));
    ASSERT_TRUE(local.Checkpoint(reference).ok());

    const std::string name = "tenant" + std::to_string(t);
    const std::string served = options_.data_dir + "/tenants/" + name +
                               "/checkpoint.demon";
    const std::string served_bytes = ReadFileBytes(served);
    ASSERT_FALSE(served_bytes.empty());
    EXPECT_EQ(served_bytes, ReadFileBytes(reference))
        << name << " checkpoint diverged from serial replay";
  }
}

TEST_F(ServerTest, RestartRecoversCursorAndDedupsResentBatches) {
  StartServer("server_restart");
  {
    ClientConnection connection;
    ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(CreateTenant(connection, "acme").ok());
    Response appended = MustCall(connection, MakeAppend("acme", 0, 20));
    ASSERT_TRUE(appended.ok());
    Request flush;
    flush.type = MsgType::kFlushTenant;
    flush.tenant = "acme";
    ASSERT_TRUE(MustCall(connection, flush).ok());
  }
  ASSERT_TRUE(server_->Stop().ok());

  // Same data_dir: the new incarnation recovers the tenant and its
  // cursor.
  DemonServer restarted(options_);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.host()->NumTenants(), 1u);
  ClientConnection connection;
  ASSERT_TRUE(connection.Connect("127.0.0.1", restarted.port()).ok());

  // CreateTenant is idempotent on an existing tenant and reports the
  // resume cursor.
  Response created = CreateTenant(connection, "acme");
  ASSERT_TRUE(created.ok()) << created.message;
  EXPECT_EQ(created.records_admitted, 20u);

  // A full resend overlaps the cursor entirely: deduplicated, cursor
  // unmoved.
  Response resent = MustCall(connection, MakeAppend("acme", 0, 20));
  ASSERT_TRUE(resent.ok());
  EXPECT_EQ(resent.records_admitted, 20u);

  // A straddling batch: records 15..25 admits exactly the 5 new ones.
  Response straddle = MustCall(connection, MakeAppend("acme", 15, 10));
  ASSERT_TRUE(straddle.ok());
  EXPECT_EQ(straddle.records_admitted, 25u);
  ASSERT_TRUE(restarted.Stop().ok());
}

TEST_F(ServerTest, ShutdownRequestStopsTheServerDurably) {
  StartServer("server_shutdown");
  ClientConnection connection;
  ASSERT_TRUE(connection.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(CreateTenant(connection, "acme").ok());
  ASSERT_TRUE(MustCall(connection, MakeAppend("acme", 0, 5)).ok());
  Response stopped = MustCall(connection, Request{MsgType::kShutdown});
  EXPECT_TRUE(stopped.ok()) << stopped.message;
  server_->WaitForShutdown();  // resolves because kShutdown was served
  ASSERT_TRUE(server_->Stop().ok());
  // The staged (never explicitly flushed) records became durable.
  DemonServer restarted(options_);
  ASSERT_TRUE(restarted.Start().ok());
  auto stats = restarted.host()->TenantStatsOf("acme");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_durable, 5u);
  ASSERT_TRUE(restarted.Stop().ok());
}

}  // namespace
}  // namespace demon::server
