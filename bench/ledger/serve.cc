// serve-tenants and serve-quest: a demon_serve child process under
// open-loop load from two client connections, one thread each.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "bench/ledger/workloads.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/demon_monitor.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/counting_context.h"
#include "persistence/wal.h"
#include "server/tenant_host.h"
#include "server/wire.h"

namespace demon::ledger {
namespace {

using server::MsgType;
using server::Request;
using server::Response;

/// Delay between the end of set-up work and the first batch's due time.
constexpr uint64_t kLeadInNs = 20'000'000;
/// Smoke runs offer load for this long.
constexpr double kSmokeSeconds = 0.5;
/// Idle time before a server run. On the 4-vCPU reference host, an ack
/// measurement started within 3 s of a CPU-heavy run read 1.5-2.5x slower
/// for its whole length; after 5 s of idleness it did not.
constexpr auto kQuietPeriod = std::chrono::seconds(8);

struct ServeWorkload {
  size_t tenants = 0;
  size_t num_items = 0;
  /// The one itemset monitor every tenant registers.
  MonitorSpec spec;
  uint64_t flush_records = 0;
  uint64_t checkpoint_blocks = 8;
  /// Records per AppendBatch.
  uint64_t batch = 0;
  /// Offered load, records per second, round-robin over tenants.
  double rate = 0;
  /// Each tenant streams its own Quest stream (seed S + tenant) instead of
  /// demon_load-shaped records.
  bool quest = false;
  QuestParams quest_params;
  /// Tenants whose checkpoints are restored and checked after shutdown,
  /// spread evenly over all tenants.
  size_t checked_tenants = 0;
  /// The first tenants, replayed through each layer by trace runs.
  size_t replay_tenants = 0;
  /// The latency limit a `sustained` run meets: on the ack p90, or else
  /// on the model-lag p90.
  bool limit_on_ack = false;
  double limit_s = 0;
};

ServeWorkload MakeWorkload(const std::string& name, bool smoke) {
  ServeWorkload w;
  w.spec.kind = MonitorKind::kUnrestrictedItemsets;
  if (name == "serve-tenants") {
    w.tenants = smoke ? 8 : 256;
    w.num_items = 64;
    w.spec.name = "tenant-ecut";
    w.spec.minsup = 0.3;
    w.spec.strategy = CountingStrategy::kEcut;
    w.flush_records = smoke ? 16 : 512;
    w.batch = smoke ? 8 : 64;
    w.rate = smoke ? 40000 : 200000;
    w.checked_tenants = 8;
    w.replay_tenants = smoke ? 8 : 32;
    w.limit_on_ack = true;
    w.limit_s = 0.005;
  } else {
    w.tenants = 4;
    w.quest = true;
    w.quest_params = bench::PaperQuestParams(0, 0);
    w.num_items = w.quest_params.num_items;
    w.spec.name = "tenant-ecutplus";
    // κ = 0.02 and 1000-record blocks: ~0.1 s of BORDERS work per block
    // and 8 blocks/s over the 4 tenants, so a 20 s run yields 150 lag
    // samples with the two flush threads about half busy.
    w.spec.minsup = 0.02;
    w.spec.strategy = CountingStrategy::kEcutPlus;
    w.flush_records = 1000;
    w.batch = 20;
    w.rate = 8000;
    if (smoke) {
      w.quest_params.num_items = w.num_items = 100;
      w.quest_params.num_patterns = 50;
      w.quest_params.avg_transaction_len = 6;
      w.quest_params.avg_pattern_len = 3;
      w.spec.minsup = 0.05;
      w.flush_records = 25;
      w.batch = 5;
    }
    w.checked_tenants = 4;
    w.replay_tenants = 4;
    w.limit_s = 2.0;
  }
  return w;
}

std::string TenantName(size_t tenant) { return "t" + std::to_string(tenant); }

/// Tenant t's stream opens with a lead of t·flush_records/tenants records,
/// appended during set-up, so tenants cut blocks and checkpoints at evenly
/// spread times instead of in lockstep. Load batch i then goes to tenant
/// i mod tenants and is due i·interval after the first; every tenant
/// receives the same number of whole batches.
struct LoadPlan {
  size_t tenants = 0;
  uint64_t batch = 0;
  uint64_t flush_records = 0;
  size_t batches = 0;
  uint64_t interval_ns = 0;

  size_t TenantOf(size_t i) const { return i % tenants; }
  uint64_t LeadOf(size_t tenant) const {
    return tenant * flush_records / tenants;
  }
  uint64_t FirstOf(size_t i) const {
    return LeadOf(TenantOf(i)) + (i / tenants) * batch;
  }
  /// The tenant's whole stream: lead plus load.
  uint64_t RecordsOf(size_t tenant) const {
    return LeadOf(tenant) + batches / tenants * batch;
  }
  double LoadRecords() const { return static_cast<double>(batches * batch); }
};

LoadPlan PlanLoad(const ServeWorkload& w, double seconds) {
  LoadPlan plan;
  plan.tenants = w.tenants;
  plan.batch = w.batch;
  plan.flush_records = w.flush_records;
  const double rounds = std::floor(seconds * w.rate /
                                   static_cast<double>(w.batch * w.tenants));
  plan.batches = static_cast<size_t>(std::max(1.0, rounds)) * w.tenants;
  plan.interval_ns =
      static_cast<uint64_t>(static_cast<double>(w.batch) / w.rate * 1e9);
  return plan;
}

/// Every tenant's record stream, a pure function of (seed, tenant, index).
class TenantStreams {
 public:
  TenantStreams(const ServeWorkload& w, uint64_t seed, const LoadPlan& plan)
      : w_(w), seed_(seed) {
    if (!w.quest) return;
    for (size_t t = 0; t < w.tenants; ++t) {
      QuestParams params = w.quest_params;
      params.seed = seed + t;
      quest_.push_back(QuestGenerator(params)
                           .NextBlock(plan.RecordsOf(t), 0)
                           .transactions());
    }
  }

  std::vector<Transaction> Records(size_t tenant, uint64_t first,
                                   uint64_t count) const {
    if (w_.quest) {
      const auto begin = quest_[tenant].begin() + static_cast<ptrdiff_t>(first);
      return {begin, begin + static_cast<ptrdiff_t>(count)};
    }
    std::vector<Transaction> records;
    records.reserve(count);
    for (uint64_t i = first; i < first + count; ++i) {
      // The demon_load record shape: 2-7 uniform items.
      Rng rng(seed_ ^ (tenant + 1) * 0x9E3779B97F4A7C15ULL ^
              (i + 1) * 0xBF58476D1CE4E5B9ULL);
      const size_t size = 2 + static_cast<size_t>(rng.NextUint64(6));
      std::vector<Item> items;
      for (size_t k = 0; k < size; ++k) {
        items.push_back(static_cast<Item>(rng.NextUint64(w_.num_items)));
      }
      records.emplace_back(std::move(items));
    }
    return records;
  }

 private:
  const ServeWorkload& w_;
  const uint64_t seed_;
  std::vector<std::vector<Transaction>> quest_;
};

Request AppendRequest(const TenantStreams& streams, const LoadPlan& plan,
                      size_t i) {
  Request request;
  request.type = MsgType::kAppendBatch;
  request.tenant = TenantName(plan.TenantOf(i));
  request.first_record_index = plan.FirstOf(i);
  request.transactions =
      streams.Records(plan.TenantOf(i), plan.FirstOf(i), plan.batch);
  return request;
}

/// The append of a tenant's lead (see LoadPlan), sent before the load.
Request LeadRequest(const TenantStreams& streams, const LoadPlan& plan,
                    size_t tenant) {
  Request request;
  request.type = MsgType::kAppendBatch;
  request.tenant = TenantName(tenant);
  request.transactions = streams.Records(tenant, 0, plan.LeadOf(tenant));
  return request;
}

/// A blocking client connection speaking pre-encoded frames.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError(std::strerror(errno));
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A wedged server fails the run instead of hanging it.
    const timeval timeout{60, 0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::IoError(std::string("connect: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  [[nodiscard]] Result<Response> Call(const std::string& frame) {
    DEMON_RETURN_NOT_OK(server::SendFrame(fd_, frame));
    DEMON_ASSIGN_OR_RETURN(const std::string payload,
                           server::ReceiveFramePayload(fd_));
    return server::DecodeResponsePayload(payload);
  }

 private:
  int fd_ = -1;
};

/// Issues one request, counting it as attempted and, unless it succeeds,
/// as failed.
Result<Response> Call(Connection& connection, const Request& request,
                      RunResult* result) {
  ++result->attempted;
  auto response = connection.Call(server::EncodeRequestFrame(request));
  if (!response.ok() || !response.value().ok()) {
    ++result->failed;
    return response.ok() ? response.value().ToStatus() : response.status();
  }
  return response;
}

/// A fresh directory under the output directory, removed on destruction.
class ScratchDir {
 public:
  ScratchDir(const RunOptions& options, int index)
      : path_(options.out_dir + "/tmp/" + options.workload + "-" +
              std::to_string(::getpid()) + "-" + std::to_string(index)) {
    std::error_code error;
    std::filesystem::remove_all(path_, error);
    std::filesystem::create_directories(path_, error);
  }
  ~ScratchDir() {
    std::error_code error;
    std::filesystem::remove_all(path_, error);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
};

/// A running demon_serve and its two client connections.
struct Server {
  Subprocess process;
  Connection lanes[2];
  double setup_s = 0;
};

/// Spawns `demon_serve --port=0 --threads=2` on `data_dir`, reads the port
/// from its startup line, connects and pings it. setup_s runs from the
/// spawn to the Ping reply.
Status StartServer(const ServeWorkload& w, const RunOptions& options,
                   const std::string& data_dir, Server* server,
                   RunResult* result) {
  const double start = NowSeconds();
  DEMON_RETURN_NOT_OK(server->process.Start(
      {options.serve_bin, "--port=0", "--threads=2", "--data_dir=" + data_dir,
       "--flush_records=" + std::to_string(w.flush_records),
       "--checkpoint_blocks=" + std::to_string(w.checkpoint_blocks)}));
  DEMON_ASSIGN_OR_RETURN(const std::string line,
                         server->process.ReadLine(30.0));
  const size_t at = line.find("127.0.0.1:");
  if (at == std::string::npos) {
    return Status::Internal("unexpected demon_serve output: " + line);
  }
  const auto port =
      static_cast<uint16_t>(std::strtoul(line.c_str() + at + 10, nullptr, 10));
  for (Connection& lane : server->lanes) {
    DEMON_RETURN_NOT_OK(lane.Connect(port));
  }
  Request ping;
  ping.type = MsgType::kPing;
  DEMON_RETURN_NOT_OK(Call(server->lanes[0], ping, result).status());
  server->setup_s = NowSeconds() - start;
  return Status::OK();
}

/// Creates every tenant, each with the workload's monitor.
Status CreateTenants(const ServeWorkload& w, Server* server,
                     RunResult* result) {
  for (size_t t = 0; t < w.tenants; ++t) {
    Request create;
    create.type = MsgType::kCreateTenant;
    create.tenant = TenantName(t);
    create.num_items = w.num_items;
    create.specs = {w.spec};
    DEMON_RETURN_NOT_OK(Call(server->lanes[0], create, result).status());
  }
  return Status::OK();
}

/// Requests a durable shutdown and waits for the process to exit cleanly.
Status StopServer(Server* server, RunResult* result) {
  Request shutdown;
  shutdown.type = MsgType::kShutdown;
  DEMON_RETURN_NOT_OK(Call(server->lanes[0], shutdown, result).status());
  return server->process.Finish(60.0);
}

OpenLoopClock RealClock() {
  return {[] { return telemetry::NowNanos(); },
          [](uint64_t due_ns) {
            const uint64_t now = telemetry::NowNanos();
            if (due_ns > now) {
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(due_ns - now));
            }
          }};
}

/// What one load measured.
struct LoadPass {
  double setup_s = 0;
  /// CreateTenant for every tenant.
  double create_s = 0;
  /// Per batch, indexed like the plan.
  std::vector<RequestTiming> timings;
  std::vector<uint64_t> durable;
  uint64_t first_due_ns = 0;
  /// FlushAll reply, after the first due time.
  double flushed_s = 0;
  /// demon_serve CPU over the load plus FlushAll.
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double records = 0;
  double frame_bytes = 0;
};

/// Starts a server on `data_dir`, offers the planned batches open loop over
/// two connections (tenant t on connection t mod 2, so each tenant's
/// batches stay in order), then flushes, checks every tenant's durable
/// count and shuts the server down. `registry` (nullable) receives one
/// span per batch.
LoadPass RunLoad(const ServeWorkload& w, const RunOptions& options,
                 const TenantStreams& streams, const LoadPlan& plan,
                 const std::string& data_dir,
                 telemetry::TelemetryRegistry* registry, RunResult* result) {
  LoadPass pass;
  Server server;
  Status started = StartServer(w, options, data_dir, &server, result);
  const double create_start = NowSeconds();
  if (started.ok()) started = CreateTenants(w, &server, result);
  if (!started.ok()) {
    result->Fail("demon_serve set-up: " + started.ToString());
    return pass;
  }
  pass.setup_s = server.setup_s;
  pass.create_s = NowSeconds() - create_start;
  for (size_t t = 0; t < w.tenants; ++t) {
    if (plan.LeadOf(t) == 0) continue;
    if (!Call(server.lanes[0], LeadRequest(streams, plan, t), result).ok()) {
      result->Fail("lead-in append for " + TenantName(t) + " failed");
      return pass;
    }
  }

  // Frames are encoded up front so encoding stays off the send path.
  std::vector<std::string> frames(plan.batches);
  for (size_t i = 0; i < plan.batches; ++i) {
    frames[i] = server::EncodeRequestFrame(AppendRequest(streams, plan, i));
    pass.frame_bytes += static_cast<double>(frames[i].size());
  }
  pass.records = plan.LoadRecords();
  pass.timings.resize(plan.batches);
  pass.durable.resize(plan.batches);

  const auto cpu_start = server.process.CpuSeconds();
  pass.first_due_ns = telemetry::NowNanos() + kLeadInNs;
  const auto drive = [&](int lane) {
    // Precise wake-ups: the default timer slack would make every send late.
    (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<size_t> indices;
    std::vector<uint64_t> due;
    for (size_t i = 0; i < plan.batches; ++i) {
      if (plan.TenantOf(i) % 2 != static_cast<size_t>(lane)) continue;
      indices.push_back(i);
      due.push_back(pass.first_due_ns + i * plan.interval_ns);
    }
    const std::vector<RequestTiming> timings =
        RunOpenLoop(due, RealClock(), [&](size_t k) {
          const size_t i = indices[k];
          std::optional<telemetry::TraceSpan> span;
          if (registry != nullptr) {
            span.emplace(registry, "batch " + std::to_string(i), "ledger");
          }
          auto reply = server.lanes[lane].Call(frames[i]);
          if (!reply.ok() || !reply.value().ok()) return false;
          pass.durable[i] = reply.value().records_durable;
          return true;
        });
    for (size_t k = 0; k < indices.size(); ++k) {
      pass.timings[indices[k]] = timings[k];
    }
  };
  std::thread second_lane(drive, 1);
  drive(0);
  second_lane.join();
  for (const RequestTiming& timing : pass.timings) {
    ++result->attempted;
    if (!timing.ok) ++result->failed;
  }

  Request flush;
  flush.type = MsgType::kFlushAll;
  const auto flushed = Call(server.lanes[0], flush, result);
  pass.flushed_s =
      static_cast<double>(telemetry::NowNanos() - pass.first_due_ns) * 1e-9;
  const auto cpu_end = server.process.CpuSeconds();
  const auto peak_rss = server.process.PeakRssMiB();
  if (!flushed.ok() || !cpu_start.ok() || !cpu_end.ok() || !peak_rss.ok()) {
    result->Fail("FlushAll or /proc sampling failed");
    return pass;
  }
  pass.cpu_s = cpu_end.value() - cpu_start.value();
  pass.peak_rss_mb = peak_rss.value();
  for (size_t t = 0; t < w.tenants; ++t) {
    Request stats;
    stats.type = MsgType::kStats;
    stats.tenant = TenantName(t);
    const auto reply = Call(server.lanes[0], stats, result);
    if (!reply.ok() || reply.value().records_durable != plan.RecordsOf(t)) {
      result->Fail(TenantName(t) + " did not make every record durable");
    }
  }
  const Status stopped = StopServer(&server, result);
  if (!stopped.ok()) {
    result->Fail("demon_serve shutdown: " + stopped.ToString());
  }
  return pass;
}

/// Restores the checkpoints of the checked tenants and compares each model
/// with Apriori over the tenant's regenerated stream.
void CheckCheckpoints(const ServeWorkload& w, const TenantStreams& streams,
                      const LoadPlan& plan, const std::string& data_dir,
                      RunResult* result) {
  ThreadPool pool(2);
  CountingContext context(&pool);
  for (size_t c = 0; c < w.checked_tenants && c < w.tenants; ++c) {
    const size_t t = c * w.tenants / std::min(w.checked_tenants, w.tenants);
    auto restored = DemonMonitor::Restore(data_dir + "/tenants/" +
                                          TenantName(t) + "/checkpoint.demon");
    if (!restored.ok()) {
      result->Fail("restore " + TenantName(t) + ": " +
                   restored.status().ToString());
      continue;
    }
    auto model = restored.value()->ItemsetModelOf(0);
    const auto all = std::make_shared<const TransactionBlock>(
        streams.Records(t, 0, plan.RecordsOf(t)), 0);
    const std::string diff =
        model.ok() ? CompareToDigest(*model.value(),
                                     Digest(Apriori({all}, w.spec.minsup,
                                                    w.num_items, &context)))
                   : model.status().ToString();
    if (!diff.empty()) result->Fail("restored " + TenantName(t) + ": " + diff);
  }
}

std::vector<double> AckLatencies(const LoadPass& pass) {
  std::vector<double> latencies;
  for (const RequestTiming& timing : pass.timings) {
    // A failed request counts as missing any latency limit.
    latencies.push_back(timing.ok ? timing.LatencySeconds() : INFINITY);
  }
  return latencies;
}

void MeasureEndToEnd(const ServeWorkload& w, const RunOptions& options,
                     RunResult* result) {
  const LoadPlan plan =
      PlanLoad(w, options.smoke ? kSmokeSeconds : options.seconds);
  const TenantStreams streams(w, options.seed, plan);
  // setup_s is the median of five start-ups: four throwaway servers, then
  // the one that takes the load.
  std::vector<double> setup_s;
  for (int k = 0; k < 4; ++k) {
    const ScratchDir dir(options, k);
    Server server;
    Status status = StartServer(w, options, dir.path(), &server, result);
    if (status.ok()) status = StopServer(&server, result);
    if (!status.ok()) {
      result->Fail("demon_serve set-up: " + status.ToString());
      return;
    }
    setup_s.push_back(server.setup_s);
  }
  const ScratchDir dir(options, 4);
  const LoadPass pass =
      RunLoad(w, options, streams, plan, dir.path(), nullptr, result);
  if (!result->correct) return;
  CheckCheckpoints(w, streams, plan, dir.path(), result);
  setup_s.push_back(pass.setup_s);

  std::vector<double> lags;
  for (size_t t = 0; t < w.tenants; ++t) {
    std::vector<BatchReply> replies;
    for (size_t i = t; i < plan.batches; i += w.tenants) {
      replies.push_back({plan.FirstOf(i) + plan.batch,
                         pass.timings[i].due_ns, pass.timings[i].done_ns,
                         pass.durable[i]});
    }
    const std::vector<double> tenant_lags =
        ModelLagSeconds(replies, w.flush_records);
    lags.insert(lags.end(), tenant_lags.begin(), tenant_lags.end());
  }
  result->Set("setup_s", Quantile(setup_s, 0.5, 0));
  result->Set("records_per_s", pass.records / pass.flushed_s);
  result->Set("cpu_us_per_record", pass.cpu_s / pass.records * 1e6);
  result->Set("peak_rss_mb", pass.peak_rss_mb);
  const std::vector<double> acks = AckLatencies(pass);
  result->Set("response_p50_s", Quantile(acks, 0.5));
  result->Set("model_lag_p50_s", Quantile(lags, 0.5));
  result->Set("model_lag_p90_s", Quantile(lags, 0.9));

  // Reported, not enforced: the offered rate was met and the latency limit
  // held.
  std::vector<double> lateness;
  uint64_t last_done_ns = pass.first_due_ns;
  for (const RequestTiming& timing : pass.timings) {
    lateness.push_back(timing.LatenessSeconds());
    last_done_ns = std::max(last_done_ns, timing.done_ns);
  }
  const double achieved =
      pass.records /
      (static_cast<double>(last_done_ns - pass.first_due_ns +
                           plan.interval_ns) *
       1e-9);
  const std::optional<double> ack_p90 = Quantile(acks, 0.9);
  const std::optional<double> limited =
      w.limit_on_ack ? ack_p90 : Quantile(lags, 0.9);
  const bool sustained = achieved >= 0.98 * w.rate && limited.has_value() &&
                         *limited <= w.limit_s;
  std::printf("%s tenants created in %.6f s\n", options.workload.c_str(),
              pass.create_s);
  std::printf("%s ack p90 %.6f s, generator lateness p50 %.6f s p90 %.6f s "
              "max %.6f s\n",
              options.workload.c_str(), ack_p90.value_or(INFINITY),
              Quantile(lateness, 0.5).value_or(0),
              Quantile(lateness, 0.9).value_or(0),
              Quantile(lateness, 1.0, 0).value_or(0));
  std::printf("%s offered %.0f records/s achieved %.0f records/s "
              "(%zu lag samples) %s\n",
              options.workload.c_str(), w.rate, achieved, lags.size(),
              sustained ? "sustained" : "NOT sustained");
}

/// The full blocks a tenant's stream is cut into, ids from 1 — exactly the
/// blocks demon_serve seals for it.
std::vector<BlockPtr> TenantBlocks(const ServeWorkload& w,
                                   const TenantStreams& streams,
                                   const LoadPlan& plan, size_t tenant) {
  std::vector<BlockPtr> blocks;
  for (uint64_t first = 0; first + w.flush_records <= plan.RecordsOf(tenant);
       first += w.flush_records) {
    TransactionBlock block(streams.Records(tenant, first, w.flush_records),
                           first);
    block.mutable_info()->id = static_cast<BlockId>(blocks.size() + 1);
    blocks.push_back(
        std::make_shared<const TransactionBlock>(std::move(block)));
  }
  return blocks;
}

double FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(size);
}

/// Two loads of half the run each (untraced, then traced), followed by
/// replays of the traced stream through each layer's public functions.
void MeasureLayers(const ServeWorkload& w, const RunOptions& options,
                   RunResult* result) {
  const double seconds = options.smoke ? kSmokeSeconds : options.seconds / 2;
  const LoadPlan plan = PlanLoad(w, seconds);
  const TenantStreams streams(w, options.seed, plan);
  const ScratchDir untraced_dir(options, 0);
  const LoadPass untraced = RunLoad(w, options, streams, plan,
                                    untraced_dir.path(), nullptr, result);
  telemetry::TelemetryRegistry registry;
  const ScratchDir traced_dir(options, 1);
  const LoadPass traced = RunLoad(w, options, streams, plan,
                                  traced_dir.path(), &registry, result);
  if (!result->correct) return;
  CheckCheckpoints(w, streams, plan, traced_dir.path(), result);
  const Status written =
      WriteFile(options.out_dir + "/" + options.workload + ".trace.json",
                registry.ChromeTraceJson());
  if (!written.ok()) result->Fail(written.ToString());
  ZeroLayers(result);
  auto& m = result->metrics;

  // Wire codec over the first batches.
  const size_t sampled = std::min<size_t>(plan.batches, 4096);
  double encode_s = 0, decode_s = 0;
  for (size_t i = 0; i < sampled; ++i) {
    const Request request = AppendRequest(streams, plan, i);
    double start = NowSeconds();
    const std::string frame = server::EncodeRequestFrame(request);
    encode_s += NowSeconds() - start;
    const std::string payload = frame.substr(4);  // past the length prefix
    start = NowSeconds();
    const auto decoded = server::DecodeRequestPayload(payload);
    decode_s += NowSeconds() - start;
    if (!decoded.ok()) result->Fail("decode: " + decoded.status().ToString());
  }
  m["server.encode_us_per_batch"] = encode_s / sampled * 1e6;
  m["server.decode_us_per_batch"] = decode_s / sampled * 1e6;
  m["server.bytes_per_record"] = traced.frame_bytes / traced.records;

  // Admission without a socket: TenantHost::Append for the replayed
  // tenants, in load order.
  const ScratchDir host_dir(options, 2);
  server::TenantPolicy policy;
  policy.flush_records = w.flush_records;
  policy.checkpoint_blocks = w.checkpoint_blocks;
  double append_s = 0, appends = 0;
  {
    server::TenantHost host(host_dir.path(), 2, policy, nullptr);
    for (size_t t = 0; t < w.replay_tenants; ++t) {
      const auto created =
          host.CreateTenant(TenantName(t), w.num_items, {w.spec});
      if (!created.ok()) {
        result->Fail("CreateTenant: " + created.status().ToString());
      }
      if (plan.LeadOf(t) == 0) continue;
      Request lead = LeadRequest(streams, plan, t);
      const auto appended =
          host.Append(lead.tenant, 0, std::move(lead.transactions));
      if (!appended.ok()) {
        result->Fail("lead-in Append: " + appended.status().ToString());
      }
    }
    for (size_t i = 0; i < plan.batches; ++i) {
      if (plan.TenantOf(i) >= w.replay_tenants) continue;
      std::vector<Transaction> records =
          streams.Records(plan.TenantOf(i), plan.FirstOf(i), plan.batch);
      const double start = NowSeconds();
      const auto appended = host.Append(TenantName(plan.TenantOf(i)),
                                        plan.FirstOf(i), std::move(records));
      append_s += NowSeconds() - start;
      appends += 1;
      if (!appended.ok()) {
        result->Fail("Append: " + appended.status().ToString());
      }
    }
    const Status flushed = host.FlushAll();
    if (!flushed.ok()) result->Fail("FlushAll: " + flushed.ToString());
  }
  m["server.host_append_us_per_batch"] = append_s / appends * 1e6;
  const double ack_p50_us =
      Quantile(AckLatencies(traced), 0.5).value_or(0) * 1e6;
  m["server.transport_us_per_batch"] = ack_p50_us -
                                       m["server.decode_us_per_batch"] -
                                       m["server.host_append_us_per_batch"];

  // Per replayed tenant: the WAL, the engine with its checkpoints, and the
  // standalone maintainer, each over the tenant's sealed blocks.
  const ScratchDir replay_dir(options, 3);
  double wal_s = 0, wal_bytes = 0, blocks_logged = 0;
  double checkpoint_s = 0, checkpoint_bytes = 0, checkpoints = 0;
  double records = 0;
  std::vector<BlockTimelineRecord> timeline;
  std::vector<double> walls;
  ItemsetReplay itemsets;
  for (size_t t = 0; t < w.replay_tenants; ++t) {
    const std::vector<BlockPtr> blocks = TenantBlocks(w, streams, plan, t);
    const std::string wal_path =
        replay_dir.path() + "/" + TenantName(t) + ".wal";
    auto wal = persistence::WriteAheadLog::Open(wal_path);
    if (!wal.ok()) {
      result->Fail("WAL: " + wal.status().ToString());
      return;
    }
    for (const BlockPtr& block : blocks) {
      const double start = NowSeconds();
      const Status appended = wal.value()->Append(*block);
      wal_s += NowSeconds() - start;
      if (!appended.ok()) result->Fail("WAL append: " + appended.ToString());
      records += static_cast<double>(block->size());
    }
    blocks_logged += static_cast<double>(blocks.size());
    wal_bytes += FileBytes(wal_path);

    DemonMonitor monitor(w.num_items);
    if (!monitor.AddMonitor(w.spec).ok()) result->Fail("AddMonitor");
    const std::string checkpoint_path =
        replay_dir.path() + "/" + TenantName(t) + ".checkpoint";
    std::vector<double> tenant_walls;
    itemsets.StartStream(OptionsFor(w.spec, w.num_items));
    for (size_t k = 0; k < blocks.size(); ++k) {
      TransactionBlock copy = *blocks[k];
      const double start = NowSeconds();
      monitor.AddBlock(std::move(copy));
      tenant_walls.push_back(NowSeconds() - start);
      itemsets.AddBlock(blocks[k]);
      if ((k + 1) % w.checkpoint_blocks != 0) continue;
      const double checkpoint_start = NowSeconds();
      const Status saved = monitor.Checkpoint(checkpoint_path);
      checkpoint_s += NowSeconds() - checkpoint_start;
      checkpoints += 1;
      checkpoint_bytes += FileBytes(checkpoint_path);
      if (!saved.ok()) result->Fail("Checkpoint: " + saved.ToString());
    }
    std::vector<BlockTimelineRecord> tenant_timeline =
        monitor.TimelineRecords();
    if (tenant_timeline.size() != tenant_walls.size() || blocks.size() < 2) {
      result->Fail("engine replay recorded the wrong number of blocks");
      return;
    }
    // Each tenant's first block is the initial mine.
    timeline.insert(timeline.end(), tenant_timeline.begin() + 1,
                    tenant_timeline.end());
    walls.insert(walls.end(), tenant_walls.begin() + 1, tenant_walls.end());
    itemsets.FinishStream();
  }
  m["persistence.wal_append_us_per_block"] = wal_s / blocks_logged * 1e6;
  m["persistence.wal_bytes_per_record"] = wal_bytes / records;
  m["persistence.checkpoint_s_per_call"] =
      checkpoints == 0 ? 0 : checkpoint_s / checkpoints;
  m["persistence.checkpoint_bytes_per_record"] = checkpoint_bytes / records;
  EmitCore(timeline, walls, result);
  itemsets.Emit(result);

  m["ledger.replay_vs_engine_pct"] =
      (itemsets.SecondsPerBlock() /
           m["core.response_s_per_block." + w.spec.name] -
       1.0) *
      100.0;
  const double untraced_p50 =
      Quantile(AckLatencies(untraced), 0.5).value_or(0);
  m["ledger.trace_overhead_pct"] =
      (ack_p50_us * 1e-6 / untraced_p50 - 1.0) * 100.0;
  m["ledger.itemsets_cpu_share_pct"] =
      itemsets.BordersSecondsPerRecord() /
      (untraced.cpu_s / untraced.records) * 100.0;
}

}  // namespace

RunResult RunServe(const RunOptions& options) {
  const ServeWorkload w = MakeWorkload(options.workload, options.smoke);
  if (!options.smoke) std::this_thread::sleep_for(kQuietPeriod);
  RunResult result;
  if (options.trace) {
    MeasureLayers(w, options, &result);
  } else {
    MeasureEndToEnd(w, options, &result);
  }
  return result;
}

}  // namespace demon::ledger
