// Throughput of the demon_serve ingestion path: an in-process DemonServer
// on an ephemeral port, driven by concurrent client connections streaming
// deterministic per-tenant batches through the real socket stack (frame
// codec, admission dedup, background flushes, WAL + checkpoints).
//
// Sweeps the connection count and reports records/sec plus request
// latency percentiles, in the same hand-rolled google-benchmark-shaped
// JSON as engine_throughput so scripts/bench_snapshot.sh can archive it
// as BENCH_server.json and scripts/bench_regress.py can diff it.
//
//   ./server_throughput                       # table
//   ./server_throughput --benchmark_format=json > BENCH_server.json

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/sync.h"
#include "common/telemetry.h"
#include "server/server.h"
#include "server/wire.h"

namespace demon::bench {
namespace {

using server::ClientConnection;
using server::MsgType;
using server::Request;
using server::Response;

constexpr uint64_t kSeed = 1234;
constexpr uint64_t kNumItems = 64;

Transaction MakeRecord(uint64_t tenant_index, uint64_t index) {
  Rng rng(kSeed ^ (tenant_index + 1) * 0x9E3779B97F4A7C15ULL ^
          (index + 1) * 0xBF58476D1CE4E5B9ULL);
  const size_t size = 2 + static_cast<size_t>(rng.NextUint64(6));
  std::vector<Item> items;
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<Item>(rng.NextUint64(kNumItems)));
  }
  return Transaction(std::move(items));
}

struct RunResult {
  double records_per_second = 0.0;
  double seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  uint64_t requests = 0;
  /// Records the server admitted; throughput counts only these.
  uint64_t records_admitted = 0;
};

/// One complete run: fresh server over `data_dir`, `connections` client
/// threads splitting `tenants` tenants, every record streamed, flushed
/// durably, server stopped. Any failed call fails the run.
Result<RunResult> RunServer(const std::string& data_dir, uint64_t tenants,
                            uint64_t records, uint64_t batch,
                            uint64_t connections) {
  server::ServerOptions options;
  options.data_dir = data_dir;
  options.port = 0;
  options.num_threads = 4;
  options.policy.flush_records = 64;
  options.policy.checkpoint_blocks = 4;
  server::DemonServer server(options);
  DEMON_RETURN_NOT_OK(server.Start());

  telemetry::TelemetryRegistry registry;
  std::atomic<uint64_t> admitted{0};
  Mutex error_mutex;
  Status first_error;
  auto fail = [&](const Status& status) {
    MutexLock lock(error_mutex);
    if (first_error.ok()) first_error = status;
  };
  const uint64_t start_ns = telemetry::NowNanos();
  std::vector<std::thread> workers;
  for (uint64_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      ClientConnection connection;
      const Status connected = connection.Connect("127.0.0.1", server.port());
      if (!connected.ok()) return fail(connected);
      for (uint64_t t = w; t < tenants; t += connections) {
        // Built piecewise: GCC 12 misreports "t" + to_string() here as an
        // overlapping memcpy (-Wrestrict).
        std::string tenant = "t";
        tenant += std::to_string(t);
        Request create;
        create.type = MsgType::kCreateTenant;
        create.tenant = tenant;
        create.num_items = kNumItems;
        MonitorSpec spec;
        spec.kind = MonitorKind::kUnrestrictedItemsets;
        spec.name = "itemsets";
        spec.minsup = 0.3;
        create.specs.push_back(std::move(spec));
        auto created = connection.Call(create);
        if (!created.ok()) return fail(created.status());
        if (!created.value().ok()) return fail(created.value().ToStatus());
        uint64_t cursor = 0;
        while (cursor < records) {
          const uint64_t n = std::min(batch, records - cursor);
          Request append;
          append.type = MsgType::kAppendBatch;
          append.tenant = tenant;
          append.first_record_index = cursor;
          append.transactions.reserve(n);
          for (uint64_t i = 0; i < n; ++i) {
            append.transactions.push_back(MakeRecord(t, cursor + i));
          }
          const uint64_t call_ns = telemetry::NowNanos();
          auto response = connection.Call(append);
          registry.histogram("client/request_seconds")
              ->Record(
                  static_cast<double>(telemetry::NowNanos() - call_ns) /
                  1e9);
          registry.counter("client/requests")->Increment();
          if (!response.ok()) return fail(response.status());
          if (!response.value().ok()) return fail(response.value().ToStatus());
          const uint64_t next = response.value().records_admitted;
          if (next <= cursor) {
            return fail(Status::Internal("no record admitted for " + tenant));
          }
          admitted.fetch_add(next - cursor, std::memory_order_relaxed);
          cursor = next;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  ClientConnection connection;
  Status flushed = connection.Connect("127.0.0.1", server.port());
  if (flushed.ok()) {
    Request flush_all;
    flush_all.type = MsgType::kFlushAll;
    auto response = connection.Call(flush_all);
    flushed = response.ok() ? response.value().ToStatus() : response.status();
  }
  const Status stopped = server.Stop();
  DEMON_RETURN_NOT_OK(first_error);
  DEMON_RETURN_NOT_OK(flushed);
  DEMON_RETURN_NOT_OK(stopped);

  RunResult result;
  result.seconds =
      static_cast<double>(telemetry::NowNanos() - start_ns) / 1e9;
  result.records_admitted = admitted.load();
  result.records_per_second =
      static_cast<double>(result.records_admitted) / result.seconds;
  result.requests = registry.counter("client/requests")->value();
  for (const auto& summary : registry.HistogramSummaries()) {
    if (summary.name == "client/request_seconds") {
      result.p50_seconds = summary.p50;
      result.p95_seconds = summary.p95;
    }
  }
  return result;
}

}  // namespace
}  // namespace demon::bench

int main(int argc, char** argv) {
  using namespace demon;
  using namespace demon::bench;

  std::signal(SIGPIPE, SIG_IGN);
  flags::FlagSet flags("server_throughput",
                       "demon_serve socket-ingestion throughput sweep.");
  flags.DefineString("benchmark_format", "",
                     "'json' emits a machine-readable report");
  flags.DefineString("data_dir", "/tmp/demon_server_bench",
                     "scratch directory for the hosted tenants");
  flags.DefineInt("tenants", 0, "tenants per run (0 = scaled default)");
  flags.DefineInt("records", 0, "records per tenant (0 = scaled default)");
  flags.DefineInt("batch", 50, "records per AppendBatch request");
  const Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  const bool json = flags.GetString("benchmark_format") == "json";
  const uint64_t tenants =
      flags.GetInt("tenants") > 0
          ? static_cast<uint64_t>(flags.GetInt("tenants"))
          : Scaled(160, 16);
  const uint64_t records =
      flags.GetInt("records") > 0
          ? static_cast<uint64_t>(flags.GetInt("records"))
          : Scaled(2000, 200);
  const uint64_t batch =
      static_cast<uint64_t>(std::max(1L, flags.GetInt("batch")));

  if (!json) {
    PrintHeader("demon_serve ingest throughput (" +
                std::to_string(tenants) + " tenants x " +
                std::to_string(records) + " records, batch " +
                std::to_string(batch) + ")");
    std::printf("%12s | %12s | %10s | %10s\n", "connections", "records/s",
                "p50(ms)", "p95(ms)");
  }

  std::string rows;
  const std::vector<uint64_t> sweep = {1, 2, 4, 8};
  for (size_t i = 0; i < sweep.size(); ++i) {
    const uint64_t connections = sweep[i];
    const std::string data_dir = flags.GetString("data_dir") + "/conn" +
                                 std::to_string(connections);
    const Result<RunResult> run =
        RunServer(data_dir, tenants, records, batch, connections);
    if (!run.ok()) {
      std::fprintf(stderr, "server_throughput: %llu connections: %s\n",
                   static_cast<unsigned long long>(connections),
                   run.status().ToString().c_str());
      return 1;
    }
    const RunResult& r = run.value();
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "    {\"name\": \"serve/connections:%llu\", "
        "\"records_per_second\": %.1f, \"p50\": %.9f, \"p95\": %.9f, "
        "\"requests\": %llu}%s\n",
        static_cast<unsigned long long>(connections), r.records_per_second,
        r.p50_seconds, r.p95_seconds,
        static_cast<unsigned long long>(r.requests),
        i + 1 < sweep.size() ? "," : "");
    rows += line;
    if (!json) {
      std::printf("%12llu | %12.0f | %10.3f | %10.3f\n",
                  static_cast<unsigned long long>(connections),
                  r.records_per_second, r.p50_seconds * 1e3,
                  r.p95_seconds * 1e3);
    }
  }

  if (json) {
    std::printf("{\n  \"context\": {\"benchmark\": \"server_throughput\", "
                "\"tenants\": %llu, \"records\": %llu, \"batch\": %llu},\n"
                "  \"benchmarks\": [\n%s  ]\n}\n",
                static_cast<unsigned long long>(tenants),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(batch), rows.c_str());
  }
  return 0;
}
