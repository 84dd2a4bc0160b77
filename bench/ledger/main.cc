// ledger: the benchmark of record. One invocation either runs one workload
// (--workload=NAME; the last line of output is the JSON result) or a set of
// workloads, each in its own child process, and writes one JSON document
// with the host fingerprint. bench/ledger/run.sh builds it and calls it;
// see bench/ledger/README.md.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/ledger/ledger.h"
#include "bench/ledger/workloads.h"
#include "common/flags.h"
#include "tidlist/simd.h"

namespace demon::ledger {
namespace {

/// A single run must end within the harness's 180 s limit.
constexpr unsigned kRunLimitSeconds = 170;

bool IsInProcess(const std::string& workload) {
  return workload == "uw-stationary" || workload == "mrw-drift";
}

int RunOne(const RunOptions& options) {
  ArmWatchdog(kRunLimitSeconds);
  RunResult result = IsInProcess(options.workload) ? RunInProcess(options)
                                                   : RunServe(options);
  const MetricKind kind =
      options.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  const std::string missing = MissingMetrics(result, kind);
  if (result.correct && !missing.empty()) result.Fail("metrics: " + missing);
  for (const MetricDef& def : MetricTable()) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) continue;
    std::printf("%s %s %.9g %s\n", options.workload.c_str(), def.name.c_str(),
                it->second, def.unit.c_str());
  }
  if (!result.correct) {
    std::fprintf(stderr, "ledger: %s FAILED: %s\n", options.workload.c_str(),
                 result.failure.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return result.correct ? 0 : 1;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

/// The host fingerprint every set document carries.
std::string ContextJson(const std::string& git_sha) {
  std::string out = "{\"git_sha\": ";
  AppendJsonString(git_sha, &out);
  out += ", \"build_type\": ";
  AppendJsonString(LEDGER_BUILD_TYPE, &out);
  out += ", \"compiler\": ";
  AppendJsonString(__VERSION__, &out);
  out += ", \"cpu_model\": ";
  AppendJsonString(CpuModel(), &out);
  out += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"simd\": ";
  AppendJsonString(simd::ActiveKernelName(), &out);
  return out + "}";
}

struct SetRun {
  int set = 0;
  std::string workload;
  bool trace = false;
  RunResult result;
};

/// Runs one workload in a child ledger process, echoing its output.
Result<RunResult> RunChild(const RunOptions& base, const std::string& workload,
                           bool trace) {
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe").string();
  std::vector<std::string> args = {
      self,
      "--workload=" + workload,
      "--seed=" + std::to_string(base.seed),
      "--seconds=" + std::to_string(static_cast<long>(base.seconds)),
      std::string("--trace=") + (trace ? "1" : "0"),
      "--out_dir=" + base.out_dir,
      "--serve_bin=" + base.serve_bin};
  if (base.smoke) args.push_back("--smoke");
  Subprocess child;
  DEMON_RETURN_NOT_OK(child.Start(args));
  std::string output;
  const Status finished = child.Finish(3600.0, &output);
  std::string last;
  size_t begin = 0;
  while (begin < output.size()) {
    const size_t end = output.find('\n', begin);
    const std::string line = output.substr(begin, end - begin);
    begin = end == std::string::npos ? output.size() : end + 1;
    if (line.rfind("{", 0) == 0) {
      last = line;
    } else {
      std::printf("%s\n", line.c_str());
    }
  }
  std::fflush(stdout);
  if (last.empty()) {
    return finished.ok() ? Status::Internal(workload + " printed no result")
                         : finished;
  }
  return ParseResultJson(last);
}

/// Runs every requested workload `sets` times (odd sets in reverse order),
/// writes the set document, and compares two sets against the bounds.
int RunSets(const RunOptions& base, const std::vector<std::string>& workloads,
            int sets, const std::string& git_sha) {
  std::vector<SetRun> runs;
  bool ok = true;
  for (int s = 0; s < sets; ++s) {
    std::vector<std::string> order = workloads;
    if (s % 2 == 1) std::reverse(order.begin(), order.end());
    for (const std::string& workload : order) {
      // Smoke sets cover both metric kinds; a full set measures one.
      std::vector<bool> kinds = {base.trace};
      if (base.smoke) kinds = {false, true};
      for (const bool trace : kinds) {
        auto result = RunChild(base, workload, trace);
        if (!result.ok()) {
          std::fprintf(stderr, "ledger: %s: %s\n", workload.c_str(),
                       result.status().ToString().c_str());
          ok = false;
          continue;
        }
        const std::string missing = MissingMetrics(
            result.value(),
            trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd);
        if (!result.value().correct || result.value().failed > 0 ||
            !missing.empty()) {
          std::fprintf(stderr, "ledger: %s incorrect or incomplete: %s\n",
                       workload.c_str(), missing.c_str());
          ok = false;
        }
        runs.push_back({s, workload, trace, result.value()});
      }
    }
  }

  std::string doc = "{\"context\": " + ContextJson(git_sha);
  doc += ", \"seed\": " + std::to_string(base.seed);
  doc += ", \"seconds\": " + std::to_string(static_cast<long>(base.seconds));
  doc += ", \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    doc += i == 0 ? "" : ", ";
    doc += "{\"set\": " + std::to_string(runs[i].set + 1) + ", \"workload\": ";
    AppendJsonString(runs[i].workload, &doc);
    doc += std::string(", \"trace\": ") + (runs[i].trace ? "true" : "false");
    doc += ", \"result\": " + ResultJson(runs[i].result) + "}";
  }
  doc += "]}\n";
  const std::string path =
      base.out_dir + (base.trace ? "/set-trace.json" : "/set.json");
  const Status written = WriteFile(path, doc);
  if (!written.ok()) {
    std::fprintf(stderr, "ledger: %s\n", written.ToString().c_str());
    ok = false;
  }
  std::printf("ledger: wrote %s\n", path.c_str());

  if (sets == 2) {
    std::printf("%-14s %-40s %14s %14s %9s %6s\n", "workload", "metric",
                "set 1", "set 2", "rel.diff", "bound");
    for (const SetRun& first : runs) {
      if (first.set != 0) continue;
      for (const SetRun& second : runs) {
        if (second.set != 1 || second.workload != first.workload ||
            second.trace != first.trace) {
          continue;
        }
        for (const MetricDef& def : MetricTable()) {
          const auto it1 = first.result.metrics.find(def.name);
          const auto it2 = second.result.metrics.find(def.name);
          if (it1 == first.result.metrics.end() ||
              it2 == second.result.metrics.end()) {
            continue;
          }
          const double v1 = it1->second;
          const double v2 = it2->second;
          const double diff = v1 == 0 ? (v2 == 0 ? 0 : INFINITY)
                                      : (v2 - v1) / std::fabs(v1);
          const bool bounded = def.kind == MetricKind::kEndToEnd;
          const bool within = !bounded || std::fabs(diff) <= def.bound;
          ok = ok && within;
          const std::string bound =
              bounded ? std::to_string(std::lround(def.bound * 100)) + "%"
                      : "-";
          std::printf("%-14s %-40s %14.6g %14.6g %+8.1f%% %5s%s\n",
                      first.workload.c_str(), def.name.c_str(), v1, v2,
                      diff * 100.0, bound.c_str(),
                      within ? "" : "  EXCEEDS BOUND");
        }
      }
    }
  }
  return ok ? 0 : 1;
}

std::vector<std::string> SplitWorkloads(const std::string& list) {
  if (list == "all") return WorkloadNames();
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t end = std::min(list.find(',', begin), list.size());
    out.push_back(list.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

bool KnownWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace
}  // namespace demon::ledger

int main(int argc, char** argv) {
  using namespace demon::ledger;
  std::signal(SIGPIPE, SIG_IGN);
  demon::flags::FlagSet flags(
      "ledger",
      "DEMON's benchmark of record: four workloads, end-to-end metrics and a "
      "per-layer ledger (bench/ledger/README.md).");
  flags.DefineString("workload", "",
                     "run this one workload and end with its JSON result");
  flags.DefineString("workloads", "all",
                     "comma-separated workloads of a set (or 'all')");
  flags.DefineInt("seed", 1, "input seed: every generated stream derives "
                             "from it");
  flags.DefineInt("seconds", 20, "how long one workload run measures");
  flags.DefineBool("trace", false,
                   "per-layer ledger and Perfetto traces instead of the "
                   "end-to-end metrics");
  flags.DefineBool("smoke", false, "tiny sizes (both metric kinds in a set)");
  flags.DefineInt("sets", 1, "sets to run back to back, alternating order");
  flags.DefineString("out_dir", "build-ledger/out",
                     "traces, set documents and scratch data go here");
  flags.DefineString("serve_bin", LEDGER_SERVE_BIN, "the demon_serve binary");
  flags.DefineString("git_sha", "unknown", "recorded in the set document");
  const demon::Status parsed = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (!parsed.ok()) {
    std::fprintf(stderr, "ledger: %s\n", parsed.message().c_str());
    return 2;
  }

  RunOptions options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = static_cast<double>(flags.GetInt("seconds"));
  options.trace = flags.GetBool("trace");
  options.smoke = flags.GetBool("smoke");
  options.out_dir = flags.GetString("out_dir");
  options.serve_bin = flags.GetString("serve_bin");
  std::error_code error;
  std::filesystem::create_directories(options.out_dir + "/tmp", error);
  if (error) {
    std::fprintf(stderr, "ledger: cannot create %s\n", options.out_dir.c_str());
    return 2;
  }
  if (options.seconds < 1 || flags.GetInt("sets") < 1) {
    std::fprintf(stderr, "ledger: --seconds and --sets must be >= 1\n");
    return 2;
  }

  if (!options.workload.empty()) {
    if (!KnownWorkload(options.workload)) {
      std::fprintf(stderr, "ledger: unknown workload %s\n",
                   options.workload.c_str());
      return 2;
    }
    return RunOne(options);
  }
  const std::vector<std::string> workloads =
      SplitWorkloads(flags.GetString("workloads"));
  for (const std::string& workload : workloads) {
    if (!KnownWorkload(workload)) {
      std::fprintf(stderr, "ledger: unknown workload %s\n", workload.c_str());
      return 2;
    }
  }
  return RunSets(options, workloads, static_cast<int>(flags.GetInt("sets")),
                 flags.GetString("git_sha"));
}
