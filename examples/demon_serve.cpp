// demon_serve: the long-running multi-tenant DEMON daemon.
//
// Accepts transaction batches over the length-prefixed binary protocol of
// src/server/wire.h, hosts one independent DemonMonitor per tenant, and
// keeps every tenant crash-durable through a write-ahead log plus periodic
// checkpoints. Drive it with examples/demon_load.cpp; kill it with -9 and
// restart it to watch recovery replay the WAL (scripts/server_soak_test.sh
// automates exactly that and diffs the recovered checkpoints byte for
// byte).
//
//   demon_serve --port=7341 --data_dir=/tmp/demon --flush_records=50

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "persistence/file.h"
#include "server/server.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int /*signum*/) { g_stop.store(true, std::memory_order_release); }

}  // namespace

int main(int argc, char** argv) {
  using demon::flags::FlagSet;
  FlagSet flags("demon_serve",
                "Multi-tenant DEMON monitoring daemon: hosts one evolving "
                "database per tenant, durable via WAL + checkpoints.");
  flags.DefineInt("port", 0, "TCP port to listen on (0 binds an ephemeral "
                             "port, printed at startup)");
  flags.DefineString("data_dir", "",
                     "root directory for tenant state (required)");
  flags.DefineInt("threads", 4, "workers in the shared flush pool");
  flags.DefineInt("flush_records", 512,
                  "records per sealed block (the deterministic block cut)");
  flags.DefineInt("checkpoint_blocks", 8,
                  "checkpoint + WAL reset after this many sealed blocks");
  flags.DefineString("telemetry_out", "",
                     "write Prometheus-format metrics here at exit");
  const demon::Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "demon_serve: %s\n", parsed.message().c_str());
    return 2;
  }
  if (flags.GetString("data_dir").empty()) {
    std::fprintf(stderr, "demon_serve: --data_dir is required\n");
    return 2;
  }

  // A peer that vanishes mid-reply must surface as an IoError on that
  // connection, never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  demon::server::ServerOptions options;
  options.data_dir = flags.GetString("data_dir");
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  options.policy.flush_records =
      static_cast<uint64_t>(flags.GetInt("flush_records"));
  options.policy.checkpoint_blocks =
      static_cast<uint64_t>(flags.GetInt("checkpoint_blocks"));

  demon::server::DemonServer server(options);
  const demon::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "demon_serve: start failed: %s\n",
                 started.message().c_str());
    return 1;
  }
  std::printf("demon_serve listening on 127.0.0.1:%u (data_dir=%s, "
              "tenants recovered=%zu)\n",
              server.port(), options.data_dir.c_str(),
              server.host()->NumTenants());
  std::fflush(stdout);

  server.WaitForShutdown(&g_stop);
  const demon::Status stopped = server.Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "demon_serve: final flush failed: %s\n",
                 stopped.message().c_str());
  }

  const demon::server::HostStats stats = server.host()->Stats();
  std::printf("demon_serve stopped: %llu tenants, %llu records durable, "
              "%llu blocks\n",
              static_cast<unsigned long long>(stats.num_tenants),
              static_cast<unsigned long long>(stats.records_durable),
              static_cast<unsigned long long>(stats.blocks));

  const std::string telemetry_out = flags.GetString("telemetry_out");
  if (!telemetry_out.empty()) {
    const std::string text = server.telemetry()->Export(
        demon::telemetry::TelemetryFormat::kPrometheus);
    const demon::Status written =
        demon::persistence::WriteFile(telemetry_out, {text});
    if (!written.ok()) {
      std::fprintf(stderr, "demon_serve: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  return stopped.ok() ? 0 : 1;
}
