// demon_load: load generator and soak client for demon_serve.
//
// Drives N tenants over K connections: creates each tenant with an
// itemset monitor, then streams a deterministic per-tenant transaction
// sequence in batches, carrying the cumulative record index so the
// server's exactly-once cursor can dedup resends. `--resume` re-reads
// each tenant's cursor from the CreateTenant reply (idempotent on an
// existing tenant) and regenerates the stream from there — record i of
// tenant t is a pure function of (seed, t, i) — which is how the soak
// harness re-drives a server that was SIGKILLed mid-stream.
//
//   demon_load --port=7341 --tenants=1000 --records=120 --batch=40
//              --resume --flush --shutdown

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/telemetry.h"
#include "persistence/file.h"
#include "server/wire.h"

namespace {

using demon::Rng;
using demon::Status;
using demon::Transaction;
using demon::server::ClientConnection;
using demon::server::MsgType;
using demon::server::Request;
using demon::server::Response;

struct LoadConfig {
  std::string host;
  uint16_t port = 0;
  uint64_t tenants = 0;
  uint64_t records = 0;
  uint64_t batch = 0;
  uint64_t num_items = 0;
  double minsup = 0.3;
  uint64_t seed = 0;
  bool resume = false;
};

/// Record `index` of tenant `tenant_index`: deterministic and randomly
/// addressable, so a resumed run regenerates exactly the suffix the
/// server is missing.
Transaction MakeRecord(const LoadConfig& config, uint64_t tenant_index,
                       uint64_t index) {
  Rng rng(config.seed ^ (tenant_index + 1) * 0x9E3779B97F4A7C15ULL ^
          (index + 1) * 0xBF58476D1CE4E5B9ULL);
  const size_t size = 2 + static_cast<size_t>(rng.NextUint64(6));
  std::vector<demon::Item> items;
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<demon::Item>(rng.NextUint64(config.num_items)));
  }
  return Transaction(std::move(items));
}

std::string TenantName(uint64_t tenant_index) {
  // Built piecewise: GCC 12 misreports "t" + to_string() as an overlapping
  // memcpy (-Wrestrict), which breaks -DDEMON_WERROR=ON builds.
  std::string name = "t";
  name += std::to_string(tenant_index);
  return name;
}

/// Issues one call and records its latency.
demon::Result<Response> TimedCall(ClientConnection& connection,
                                  const Request& request,
                                  demon::telemetry::TelemetryRegistry* reg) {
  const uint64_t start_ns = demon::telemetry::NowNanos();
  auto response = connection.Call(request);
  reg->histogram("client/request_seconds")
      ->Record(static_cast<double>(demon::telemetry::NowNanos() - start_ns) /
               1e9);
  reg->counter("client/requests")->Increment();
  if (!response.ok() || !response.value().ok()) {
    reg->counter("client/errors")->Increment();
  }
  return response;
}

/// Streams every tenant with index ≡ worker (mod workers). Returns the
/// first error hit.
Status RunWorker(const LoadConfig& config, uint64_t worker, uint64_t workers,
                 demon::telemetry::TelemetryRegistry* reg) {
  ClientConnection connection;
  DEMON_RETURN_NOT_OK(connection.Connect(config.host, config.port));
  for (uint64_t t = worker; t < config.tenants; t += workers) {
    Request create;
    create.type = MsgType::kCreateTenant;
    create.tenant = TenantName(t);
    create.num_items = config.num_items;
    demon::MonitorSpec spec;
    spec.kind = demon::MonitorKind::kUnrestrictedItemsets;
    spec.name = "itemsets";
    spec.minsup = config.minsup;
    create.specs.push_back(std::move(spec));
    auto created = TimedCall(connection, create, reg);
    if (!created.ok()) return created.status();
    DEMON_RETURN_NOT_OK(created.value().ToStatus());

    uint64_t cursor =
        config.resume ? created.value().records_admitted : 0;
    while (cursor < config.records) {
      const uint64_t n = std::min(config.batch, config.records - cursor);
      Request append;
      append.type = MsgType::kAppendBatch;
      append.tenant = TenantName(t);
      append.first_record_index = cursor;
      append.transactions.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        append.transactions.push_back(MakeRecord(config, t, cursor + i));
      }
      auto appended = TimedCall(connection, append, reg);
      if (!appended.ok()) return appended.status();
      DEMON_RETURN_NOT_OK(appended.value().ToStatus());
      reg->counter("client/records_sent")->Add(n);
      cursor = appended.value().records_admitted;
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  using demon::flags::FlagSet;
  FlagSet flags("demon_load",
                "Load generator for demon_serve: deterministic per-tenant "
                "transaction streams with exactly-once resume.");
  flags.DefineString("host", "127.0.0.1", "server address");
  flags.DefineInt("port", 0, "server port (required)");
  flags.DefineInt("tenants", 8, "tenants to drive");
  flags.DefineInt("records", 200, "records per tenant");
  flags.DefineInt("batch", 50, "records per AppendBatch");
  flags.DefineInt("connections", 4, "client connections (worker threads)");
  flags.DefineInt("num_items", 64, "item-universe size per tenant");
  flags.DefineDouble("minsup", 0.3, "minimum support of each tenant's "
                                    "itemset monitor");
  flags.DefineInt("seed", 42, "stream seed (determines every record)");
  flags.DefineBool("resume", false,
                   "resume each tenant from the server's cursor instead of "
                   "resending from record 0");
  flags.DefineBool("flush", false, "FlushAll after streaming");
  flags.DefineBool("shutdown", false,
                   "request a durable server shutdown at the end");
  flags.DefineBool("ping", false, "just ping the server and exit");
  flags.DefineString("json_out", "",
                     "write a latency/throughput summary JSON here");
  const Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "demon_load: %s\n", parsed.message().c_str());
    return 2;
  }
  if (flags.GetInt("port") <= 0) {
    std::fprintf(stderr, "demon_load: --port is required\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  LoadConfig config;
  config.host = flags.GetString("host");
  config.port = static_cast<uint16_t>(flags.GetInt("port"));
  config.tenants = static_cast<uint64_t>(flags.GetInt("tenants"));
  config.records = static_cast<uint64_t>(flags.GetInt("records"));
  config.batch = std::max<uint64_t>(1, flags.GetInt("batch"));
  config.num_items = std::max<uint64_t>(2, flags.GetInt("num_items"));
  config.minsup = flags.GetDouble("minsup");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.resume = flags.GetBool("resume");

  if (flags.GetBool("ping")) {
    ClientConnection connection;
    Status status = connection.Connect(config.host, config.port);
    if (status.ok()) {
      Request ping;
      ping.type = MsgType::kPing;
      auto response = connection.Call(ping);
      status = response.ok() ? response.value().ToStatus()
                             : response.status();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "demon_load: ping failed: %s\n",
                   status.message().c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }

  demon::telemetry::TelemetryRegistry registry;
  const uint64_t workers =
      std::max<uint64_t>(1, std::min<uint64_t>(flags.GetInt("connections"),
                                               std::max<uint64_t>(
                                                   1, config.tenants)));
  const uint64_t start_ns = demon::telemetry::NowNanos();
  std::vector<std::thread> threads;
  std::vector<Status> results(workers);
  for (uint64_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      results[w] = RunWorker(config, w, workers, &registry);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& result : results) {
    if (!result.ok()) {
      std::fprintf(stderr, "demon_load: %s\n", result.message().c_str());
      return 1;
    }
  }

  if (flags.GetBool("flush") || flags.GetBool("shutdown")) {
    ClientConnection connection;
    Status status = connection.Connect(config.host, config.port);
    if (status.ok() && flags.GetBool("flush")) {
      Request flush_all;
      flush_all.type = MsgType::kFlushAll;
      auto response = TimedCall(connection, flush_all, &registry);
      status = response.ok() ? response.value().ToStatus()
                             : response.status();
    }
    if (status.ok() && flags.GetBool("shutdown")) {
      Request stop;
      stop.type = MsgType::kShutdown;
      auto response = TimedCall(connection, stop, &registry);
      status = response.ok() ? response.value().ToStatus()
                             : response.status();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "demon_load: %s\n", status.message().c_str());
      return 1;
    }
  }

  const double seconds =
      static_cast<double>(demon::telemetry::NowNanos() - start_ns) / 1e9;
  const uint64_t sent = registry.counter("client/records_sent")->value();
  const uint64_t requests = registry.counter("client/requests")->value();
  double p50 = 0.0, p95 = 0.0, max_latency = 0.0;
  for (const auto& summary : registry.HistogramSummaries()) {
    if (summary.name == "client/request_seconds") {
      p50 = summary.p50;
      p95 = summary.p95;
      max_latency = summary.max;
    }
  }
  std::printf("demon_load: %llu tenants, %llu records in %.2fs "
              "(%.0f records/s, %llu requests, p50=%.3gs p95=%.3gs)\n",
              static_cast<unsigned long long>(config.tenants),
              static_cast<unsigned long long>(sent), seconds,
              seconds > 0 ? static_cast<double>(sent) / seconds : 0.0,
              static_cast<unsigned long long>(requests), p50, p95);

  const std::string json_out = flags.GetString("json_out");
  if (!json_out.empty()) {
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\n"
        "  \"tenants\": %llu,\n"
        "  \"records_sent\": %llu,\n"
        "  \"requests\": %llu,\n"
        "  \"seconds\": %.6f,\n"
        "  \"records_per_second\": %.1f,\n"
        "  \"latency_seconds\": {\"p50\": %.9f, \"p95\": %.9f, "
        "\"max\": %.9f}\n"
        "}\n",
        static_cast<unsigned long long>(config.tenants),
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(requests), seconds,
        seconds > 0 ? static_cast<double>(sent) / seconds : 0.0, p50, p95,
        max_latency);
    const Status written = demon::persistence::WriteFile(json_out, {buffer});
    if (!written.ok()) {
      std::fprintf(stderr, "demon_load: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
