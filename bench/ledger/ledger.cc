#include "bench/ledger/ledger.h"

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>

#include "common/telemetry.h"

extern char** environ;

namespace demon::ledger {

// --- Metrics ----------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "uw-stationary", "mrw-drift", "serve-tenants", "serve-quest"};
  return names;
}

const std::vector<std::string>& MonitorNames() {
  static const std::vector<std::string> names = {
      "uw-ecutplus", "uw-ptscan",   "mrw-ecut",
      "uw-ecut",     "tenant-ecut", "tenant-ecutplus"};
  return names;
}

const std::vector<MetricDef>& MetricTable() {
  static const std::vector<MetricDef> table = [] {
    constexpr MetricKind kEndToEnd = MetricKind::kEndToEnd;
    std::vector<MetricDef> t = {
        {"setup_s", "s", true, 0.25, kEndToEnd},
        {"records_per_s", "records/s", false, 0.25, kEndToEnd},
        {"cpu_us_per_record", "us", true, 0.25, kEndToEnd},
        {"peak_rss_mb", "MiB", true, 0.10, kEndToEnd},
        {"response_p50_s", "s", true, 0.25, kEndToEnd},
        {"model_lag_p50_s", "s", true, 0.25, kEndToEnd},
        {"model_lag_p90_s", "s", true, 0.25, kEndToEnd},
    };
    const auto layer = [&t](std::string name, std::string unit,
                            bool lower_is_better = true) {
      t.push_back({std::move(name), std::move(unit), lower_is_better, 0.0,
                   MetricKind::kPerLayer});
    };
    layer("server.encode_us_per_batch", "us");
    layer("server.decode_us_per_batch", "us");
    layer("server.bytes_per_record", "bytes");
    layer("server.host_append_us_per_batch", "us");
    layer("server.transport_us_per_batch", "us");
    layer("persistence.wal_append_us_per_block", "us");
    layer("persistence.wal_bytes_per_record", "bytes");
    layer("persistence.checkpoint_s_per_call", "s");
    layer("persistence.checkpoint_bytes_per_record", "bytes");
    layer("core.engine_overhead_s_per_block", "s");
    for (const std::string& monitor : MonitorNames()) {
      layer("core.response_s_per_block." + monitor, "s");
    }
    for (const std::string& monitor : MonitorNames()) {
      layer("core.cpu_s_per_block." + monitor, "s");
    }
    layer("core.offline_s_per_block.mrw-ecut", "s");
    layer("core.tokens_in_flight", "count", false);
    layer("core.evolution_s_per_block", "s");
    layer("itemsets.detection_s_per_block", "s");
    layer("itemsets.detect_count_s_per_block", "s");
    layer("itemsets.detect_bookkeeping_s_per_block", "s");
    layer("itemsets.update_s_per_block", "s");
    layer("itemsets.update_count_s_per_block", "s");
    layer("itemsets.update_bookkeeping_s_per_block", "s");
    layer("itemsets.new_candidates_per_block", "count");
    layer("itemsets.candidate_yield", "ratio", false);
    layer("itemsets.tracked_itemsets", "count");
    layer("itemsets.frequent_itemsets", "count", false);
    layer("itemsets.model_lookup_ns", "ns");
    layer("itemsets.maintainer_copy_s", "s");
    layer("itemsets.rules_per_query", "count", false);
    layer("itemsets.slots_fetched_per_block", "count");
    layer("itemsets.lists_opened_per_block", "count");
    layer("itemsets.transactions_scanned_per_block", "count");
    layer("itemsets.itemsets_counted_per_block", "count");
    layer("tidlist.build_s_per_block", "s");
    layer("tidlist.payload_bytes_per_record", "bytes");
    layer("tidlist.raw_list_share", "ratio", false);
    layer("tidlist.delta_list_share", "ratio");
    layer("tidlist.bitmap_list_share", "ratio", false);
    layer("tidlist.intersect_ns_per_slot", "ns");
    layer("ledger.replay_vs_engine_pct", "%");
    layer("ledger.trace_overhead_pct", "%");
    layer("ledger.itemsets_cpu_share_pct", "%");
    return t;
  }();
  return table;
}

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& def : MetricTable()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

// --- Samples ----------------------------------------------------------------

std::optional<double> Quantile(std::vector<double> samples, double q,
                               size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t index =
      std::min(n - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  if (n - 1 - index < min_beyond) return std::nullopt;
  return samples[index];
}

double NowSeconds() {
  return static_cast<double>(telemetry::NowNanos()) * 1e-9;
}

// --- Open-loop load ---------------------------------------------------------

std::vector<RequestTiming> RunOpenLoop(
    const std::vector<uint64_t>& due_ns, const OpenLoopClock& clock,
    const std::function<bool(size_t)>& call) {
  std::vector<RequestTiming> timings(due_ns.size());
  for (size_t k = 0; k < due_ns.size(); ++k) {
    RequestTiming& t = timings[k];
    t.due_ns = due_ns[k];
    if (clock.now_ns() < t.due_ns) clock.sleep_until_ns(t.due_ns);
    t.sent_ns = clock.now_ns();
    t.ok = call(k);
    t.done_ns = clock.now_ns();
  }
  return timings;
}

std::vector<double> ModelLagSeconds(const std::vector<BatchReply>& batches,
                                    uint64_t block_records) {
  std::vector<double> lags;
  // Blocks whose last record has been sent: (records end, its due time).
  std::deque<std::pair<uint64_t, uint64_t>> pending;
  uint64_t next_end = block_records;
  for (const BatchReply& batch : batches) {
    for (; next_end <= batch.records_end; next_end += block_records) {
      pending.emplace_back(next_end, batch.due_ns);
    }
    while (!pending.empty() && pending.front().first <= batch.records_durable) {
      if (pending.front().first > block_records) {
        lags.push_back(static_cast<double>(batch.reply_ns -
                                           pending.front().second) *
                       1e-9);
      }
      pending.pop_front();
    }
  }
  return lags;
}

// --- Model checks -----------------------------------------------------------

ModelDigest Digest(const ItemsetModel& model) {
  ModelDigest digest;
  digest.num_transactions = model.num_transactions();
  digest.entries.assign(model.entries().begin(), model.entries().end());
  std::sort(digest.entries.begin(), digest.entries.end(),
            [](const auto& a, const auto& b) {
              return ItemsetLess()(a.first, b.first);
            });
  return digest;
}

std::string CompareToDigest(const ItemsetModel& got, const ModelDigest& want) {
  if (got.num_transactions() != want.num_transactions) {
    return "model covers " + std::to_string(got.num_transactions()) +
           " transactions, reference " +
           std::to_string(want.num_transactions);
  }
  for (const auto& [itemset, entry] : want.entries) {
    const auto it = got.entries().find(itemset);
    if (it == got.entries().end()) {
      return "reference itemset " + ToString(itemset) + " is untracked";
    }
    if (it->second.count != entry.count ||
        it->second.frequent != entry.frequent) {
      return "itemset " + ToString(itemset) + ": count " +
             std::to_string(it->second.count) + " frequent " +
             std::to_string(it->second.frequent) + ", reference count " +
             std::to_string(entry.count) + " frequent " +
             std::to_string(entry.frequent);
    }
  }
  if (got.entries().size() != want.entries.size()) {
    return "model tracks " + std::to_string(got.entries().size()) +
           " itemsets, reference " + std::to_string(want.entries.size());
  }
  return "";
}

// --- Results ----------------------------------------------------------------

void RunResult::Set(const std::string& name, std::optional<double> value) {
  if (!value.has_value() || !std::isfinite(*value)) {
    Fail("metric " + name + " could not be measured");
    return;
  }
  metrics[name] = *value;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : MetricTable()) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", it->second);
    out += first ? "" : ", ";
    first = false;
    AppendJsonString(def.name, &out);
    out += ": {\"value\": ";
    out += value;
    out += ", \"unit\": ";
    AppendJsonString(def.unit, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

Result<RunResult> ParseResultJson(std::string_view line) {
  DEMON_ASSIGN_OR_RETURN(const Json json, ParseJson(line));
  const Json* correct = json.Find("correct");
  const Json* attempted = json.Find("attempted");
  const Json* failed = json.Find("failed");
  const Json* metrics = json.Find("metrics");
  if (json.type != Json::Type::kObject || json.object.size() != 4 ||
      correct == nullptr || correct->type != Json::Type::kBool ||
      attempted == nullptr || attempted->type != Json::Type::kNumber ||
      failed == nullptr || failed->type != Json::Type::kNumber ||
      metrics == nullptr || metrics->type != Json::Type::kObject) {
    return Status::InvalidArgument("not a ledger result line");
  }
  RunResult result;
  result.correct = correct->boolean;
  result.attempted = static_cast<uint64_t>(attempted->number);
  result.failed = static_cast<uint64_t>(failed->number);
  for (const auto& [name, metric] : metrics->object) {
    const MetricDef* def = FindMetric(name);
    const Json* value = metric.Find("value");
    const Json* unit = metric.Find("unit");
    if (def == nullptr || value == nullptr ||
        value->type != Json::Type::kNumber || unit == nullptr ||
        unit->string != def->unit) {
      return Status::InvalidArgument("metric " + name +
                                     " is undeclared or has the wrong unit");
    }
    result.metrics[name] = value->number;
  }
  return result;
}

std::string MissingMetrics(const RunResult& result, MetricKind kind) {
  std::string missing;
  for (const MetricDef& def : MetricTable()) {
    if (def.kind != kind) continue;
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      missing += (missing.empty() ? "" : ", ") + def.name;
    }
  }
  for (const auto& [name, value] : result.metrics) {
    const MetricDef* def = FindMetric(name);
    if (def == nullptr || def->kind != kind) {
      missing += (missing.empty() ? "unexpected " : ", unexpected ") + name;
    }
  }
  return missing;
}

// --- JSON -------------------------------------------------------------------

const Json* Json::Find(std::string_view key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    DEMON_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    Json value;
    const char c = text_[pos_];
    if (c == '{') {
      value.type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (Consume("}")) return value;
      for (;;) {
        SkipSpace();
        DEMON_ASSIGN_OR_RETURN(std::string key, ParseString());
        SkipSpace();
        if (!Consume(":")) return Error("expected ':'");
        DEMON_ASSIGN_OR_RETURN(Json member, ParseValue(depth + 1));
        value.object.emplace_back(std::move(key), std::move(member));
        SkipSpace();
        if (Consume("}")) return value;
        if (!Consume(",")) return Error("expected ',' or '}'");
      }
    }
    if (c == '[') {
      value.type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (Consume("]")) return value;
      for (;;) {
        DEMON_ASSIGN_OR_RETURN(Json element, ParseValue(depth + 1));
        value.array.push_back(std::move(element));
        SkipSpace();
        if (Consume("]")) return value;
        if (!Consume(",")) return Error("expected ',' or ']'");
      }
    }
    if (c == '"') {
      value.type = Json::Type::kString;
      DEMON_ASSIGN_OR_RETURN(value.string, ParseString());
      return value;
    }
    if (Consume("true")) {
      value.type = Json::Type::kBool;
      value.boolean = true;
      return value;
    }
    if (Consume("false")) {
      value.type = Json::Type::kBool;
      return value;
    }
    if (Consume("null")) return value;
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::strchr("+-.0123456789eE", text_[pos_]) != nullptr) {
      ++pos_;
    }
    const std::string number(text_.substr(start, pos_ - start));
    char* end = nullptr;
    value.type = Json::Type::kNumber;
    value.number = std::strtod(number.c_str(), &end);
    if (number.empty() || end != number.c_str() + number.size()) {
      return Error("bad value");
    }
    return value;
  }

  Result<std::string> ParseString() {
    if (!Consume("\"")) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char escaped = text_[pos_++];
        switch (escaped) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': return Error("\\u escapes are not supported");
          default: c = escaped;
        }
      }
      out += c;
    }
    if (!Consume("\"")) return Error("unterminated string");
    return out;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> ParseJson(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

void AppendJsonString(std::string_view text, std::string* out) {
  *out += '"';
  telemetry::AppendJsonEscaped(text, out);
  *out += '"';
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  const bool written =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) return Status::IoError("cannot write " + path);
  return Status::OK();
}

// --- Subprocesses -----------------------------------------------------------

namespace {

/// Children the watchdog kills; slots hold 0 when free.
std::atomic<pid_t> g_children[4];

void TrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void UntrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void OnWatchdog(int /*signum*/) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  static const char kMessage[] = "ledger: run exceeded its time limit\n";
  (void)!::write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  ::_exit(3);
}

/// Reads /proc/<pid>/<file> whole.
Result<std::string> ReadProcFile(pid_t pid, const char* file) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + file);
  if (!in) return Status::IoError(std::string("cannot read /proc/.../") + file);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

void ArmWatchdog(unsigned seconds) {
  std::signal(SIGALRM, OnWatchdog);
  ::alarm(seconds);
}

Subprocess::~Subprocess() { Kill(); }

Status Subprocess::Start(const std::vector<std::string>& args) {
  if (pid_ > 0 || args.empty()) {
    return Status::FailedPrecondition("subprocess already started");
  }
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> child_args;
  for (const std::string& arg : args) {
    child_args.push_back(const_cast<char*>(arg.c_str()));
  }
  child_args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args.front().c_str(), &actions, nullptr,
                               child_args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return Status::IoError("cannot start " + args.front() + ": " +
                           std::strerror(rc));
  }
  pid_ = pid;
  out_fd_ = fds[0];
  TrackChild(pid_);
  return Status::OK();
}

Result<std::string> Subprocess::ReadLine(double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  for (;;) {
    const size_t newline = buffered_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffered_.substr(0, newline);
      buffered_.erase(0, newline + 1);
      return line;
    }
    if (out_fd_ < 0) {
      if (buffered_.empty()) return Status::NotFound("end of output");
      return std::exchange(buffered_, std::string());
    }
    const double left = deadline - NowSeconds();
    if (left <= 0) return Status::IoError("timed out reading child output");
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno != EINTR) {
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      continue;
    }
    buffered_.append(chunk, static_cast<size_t>(n));
  }
}

Status Subprocess::Finish(double timeout_s, std::string* rest) {
  const double deadline = NowSeconds() + timeout_s;
  std::string output;
  for (;;) {
    auto line = ReadLine(std::max(0.0, deadline - NowSeconds()));
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kNotFound) break;
      Kill();
      return line.status();
    }
    output += line.value() + "\n";
  }
  if (rest != nullptr) *rest = std::move(output);
  int wstatus = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &wstatus, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) {
      return Status::IoError(std::string("waitpid: ") + std::strerror(errno));
    }
    if (NowSeconds() > deadline) {
      Kill();
      return Status::IoError("child did not exit in time");
    }
    ::usleep(2000);
  }
  UntrackChild(pid_);
  pid_ = -1;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal(
        WIFEXITED(wstatus)
            ? "child exited with status " + std::to_string(WEXITSTATUS(wstatus))
            : "child killed by signal " + std::to_string(WTERMSIG(wstatus)));
  }
  return Status::OK();
}

Result<double> Subprocess::CpuSeconds() const {
  DEMON_ASSIGN_OR_RETURN(const std::string stat, ReadProcFile(pid_, "stat"));
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return Status::DataLoss("bad /proc stat");
  std::istringstream fields(stat.substr(paren + 1));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<double> Subprocess::PeakRssMiB() const {
  DEMON_ASSIGN_OR_RETURN(const std::string status,
                         ReadProcFile(pid_, "status"));
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return Status::DataLoss("no VmHWM");
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

void Subprocess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    UntrackChild(pid_);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace demon::ledger
