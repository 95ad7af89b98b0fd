#include "bench/bench_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "bench/metrics_json.h"
#include "util/fs.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/timer.h"

namespace prefcover {

namespace {

// Per-process CPU time (all threads), so parallel cases report their true
// compute cost next to wall time.
double ProcessCpuSeconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace

void BenchRecorder::Record(const std::string& name, double value) {
  for (auto& [existing, v] : counters_) {
    if (existing == name) {
      v = value;
      return;
    }
  }
  counters_.emplace_back(name, value);
}

std::vector<std::pair<std::string, double>> BenchRecorder::Sorted() const {
  auto sorted = counters_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

LatencySummary LatencySummary::FromSamples(std::vector<double> samples_ms) {
  LatencySummary summary;
  if (samples_ms.empty()) return summary;
  QuantileSketch sketch;
  SummaryStats stats;
  sketch.Reserve(samples_ms.size());
  for (double s : samples_ms) {
    sketch.Add(s);
    stats.Add(s);
  }
  summary.p50_ms = sketch.Quantile(0.50);
  summary.p90_ms = sketch.Quantile(0.90);
  summary.p95_ms = sketch.Quantile(0.95);
  summary.mean_ms = stats.mean();
  summary.min_ms = stats.min();
  summary.max_ms = stats.max();
  return summary;
}

JsonValue LatencySummary::ToJson() const {
  JsonValue obj = JsonValue::Object();
  obj.Set("p50", JsonValue::Number(p50_ms));
  obj.Set("p90", JsonValue::Number(p90_ms));
  obj.Set("p95", JsonValue::Number(p95_ms));
  obj.Set("mean", JsonValue::Number(mean_ms));
  obj.Set("min", JsonValue::Number(min_ms));
  obj.Set("max", JsonValue::Number(max_ms));
  return obj;
}

BenchRunner::BenchRunner(BenchConfig config)
    : config_(std::move(config)), env_(EnvCapture::Capture()) {
  PREFCOVER_CHECK_MSG(config_.repetitions >= 1,
                      "BenchConfig.repetitions must be >= 1");
}

Status BenchRunner::Run(const BenchCase& bench_case) {
  PREFCOVER_ASSIGN_OR_RETURN(
      std::vector<BenchResult> results,
      Measure(std::span<const BenchCase>(&bench_case, 1)));
  return Add(std::move(results.front()));
}

Result<std::vector<BenchResult>> BenchRunner::Measure(
    std::span<const BenchCase> cases) {
  for (size_t c = 0; c < cases.size(); ++c) {
    const BenchCase& bench_case = cases[c];
    if (bench_case.name.empty() || !bench_case.run) {
      return Status::InvalidArgument("BenchCase needs a name and a body");
    }
    const auto same_name = [&bench_case](const auto& other) {
      return other.name == bench_case.name;
    };
    if (std::ranges::any_of(results_, same_name) ||
        std::ranges::any_of(cases.first(c), same_name)) {
      return Status::AlreadyExists("duplicate bench case '" +
                                   bench_case.name + "'");
    }
  }

  std::vector<BenchRecorder> recorders(cases.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    for (uint64_t i = 0; i < config_.warmup; ++i) {
      PREFCOVER_RETURN_NOT_OK(cases[c].run(&recorders[c]));
      recorders[c].Clear();
    }
  }

  std::vector<std::vector<double>> wall_ms(cases.size());
  std::vector<std::vector<double>> cpu_ms(cases.size());
  std::vector<obs::PerfCounterValues> perf(cases.size());
  for (uint64_t i = 0; i < config_.repetitions; ++i) {
    for (size_t c = 0; c < cases.size(); ++c) {
      recorders[c].Clear();
      double cpu_before = ProcessCpuSeconds();
      // Counters accumulate across repetitions so the derived ratios
      // (IPC, miss rates) average over the whole measured window.
      obs::PerfScope perf_scope(&perf_group_, &perf[c]);
      Stopwatch watch;
      PREFCOVER_RETURN_NOT_OK(cases[c].run(&recorders[c]));
      wall_ms[c].push_back(watch.ElapsedMillis());
      cpu_ms[c].push_back((ProcessCpuSeconds() - cpu_before) * 1e3);
    }
  }

  std::vector<BenchResult> results(cases.size());
  for (size_t c = 0; c < cases.size(); ++c) {
    BenchResult& result = results[c];
    result.name = cases[c].name;
    result.profile = cases[c].profile;
    result.variant = cases[c].variant;
    result.solver = cases[c].solver;
    result.n = cases[c].n;
    result.k = cases[c].k;
    result.threads = cases[c].threads;
    result.wall = LatencySummary::FromSamples(std::move(wall_ms[c]));
    result.cpu = LatencySummary::FromSamples(std::move(cpu_ms[c]));
    result.counters = recorders[c].Sorted();
    result.perf = std::move(perf[c]);
  }
  return results;
}

Status BenchRunner::Add(BenchResult result) {
  for (const BenchResult& existing : results_) {
    if (existing.name == result.name) {
      return Status::AlreadyExists("duplicate bench case '" + result.name +
                                   "'");
    }
  }
  results_.push_back(std::move(result));
  return Status::OK();
}

JsonValue BenchRunner::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Int(kBenchSchemaVersion));
  doc.Set("suite", JsonValue::Str(config_.suite));
  doc.Set("env", env_.ToJson());

  JsonValue config = JsonValue::Object();
  config.Set("seed", JsonValue::Uint(config_.seed));
  config.Set("warmup", JsonValue::Uint(config_.warmup));
  config.Set("repetitions", JsonValue::Uint(config_.repetitions));
  doc.Set("config", std::move(config));

  JsonValue cases = JsonValue::Array();
  for (const BenchResult& r : results_) {
    JsonValue c = JsonValue::Object();
    c.Set("name", JsonValue::Str(r.name));
    c.Set("profile", JsonValue::Str(r.profile));
    c.Set("variant", JsonValue::Str(r.variant));
    c.Set("solver", JsonValue::Str(r.solver));
    c.Set("n", JsonValue::Uint(r.n));
    c.Set("k", JsonValue::Uint(r.k));
    c.Set("threads", JsonValue::Uint(r.threads));
    c.Set("wall_ms", r.wall.ToJson());
    c.Set("cpu_ms", r.cpu.ToJson());
    JsonValue counters = JsonValue::Object();
    for (const auto& [name, value] : r.counters) {
      counters.Set(name, JsonValue::Number(value));
    }
    c.Set("counters", std::move(counters));
    // Host-dependent like the run-level metrics subtree: always present
    // (supported=false where perf_event_open is unavailable) so the
    // document shape is stable, and skipped by the determinism compare.
    c.Set("perf_counters", PerfCountersToJson(r.perf));
    cases.Append(std::move(c));
  }
  doc.Set("cases", std::move(cases));
  // Process-wide observability counters accumulated while the cases ran.
  // The subtree is schema-versioned on its own and excluded from the
  // determinism comparison (its totals depend on warmup counts and pool
  // scheduling), so it can grow without bumping kBenchSchemaVersion.
  doc.Set("metrics", MetricsSnapshotToJson(
                         obs::MetricsRegistry::Global().Snapshot()));
  return doc;
}

JsonValue BenchRunner::PerfCountersJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", JsonValue::Int(kPerfCountersSchemaVersion));
  doc.Set("suite", JsonValue::Str(config_.suite));
  doc.Set("supported", JsonValue::Bool(AnyPerfSupported()));
  JsonValue cases = JsonValue::Array();
  for (const BenchResult& r : results_) {
    JsonValue c = JsonValue::Object();
    c.Set("name", JsonValue::Str(r.name));
    c.Set("perf_counters", PerfCountersToJson(r.perf));
    cases.Append(std::move(c));
  }
  doc.Set("cases", std::move(cases));
  return doc;
}

bool BenchRunner::AnyPerfSupported() const {
  for (const BenchResult& r : results_) {
    if (r.perf.supported) return true;
  }
  return false;
}

Status BenchRunner::WriteJsonFile(const std::string& path) const {
  // Atomic replace: bench trajectories are append-compared across runs,
  // so a crash must never leave a truncated JSON behind.
  return WriteFileAtomic(path, ToJson().Dump());
}

namespace {

std::string FormatRatio(double value, const char* unit = "") {
  if (!std::isfinite(value)) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f%s", value, unit);
  return buffer;
}

}  // namespace

TablePrinter BenchRunner::SummaryTable() const {
  const bool with_perf = AnyPerfSupported();
  std::vector<std::string> header = {"case",     "n",        "k",
                                     "threads",  "wall p50", "wall p95",
                                     "cpu p50"};
  if (with_perf) {
    header.push_back("ipc");
    header.push_back("br miss");
    header.push_back("cache miss");
  }
  TablePrinter table(header);
  for (const BenchResult& r : results_) {
    std::vector<std::string> row = {r.name,
                                    FormatCount(r.n),
                                    FormatCount(r.k),
                                    std::to_string(r.threads),
                                    FormatDuration(r.wall.p50_ms * 1e-3),
                                    FormatDuration(r.wall.p95_ms * 1e-3),
                                    FormatDuration(r.cpu.p50_ms * 1e-3)};
    if (with_perf) {
      row.push_back(FormatRatio(r.perf.Ipc()));
      row.push_back(FormatRatio(r.perf.BranchMissRate() * 100.0, "%"));
      row.push_back(FormatRatio(r.perf.CacheMissRate() * 100.0, "%"));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

void AddBenchFlags(FlagParser* flags, int64_t default_reps,
                   int64_t default_warmup) {
  flags->AddString("json", "",
                   "write the BENCH_core.json document to this path");
  flags->AddString("perf_json", "",
                   "write the standalone perf-counter document to this "
                   "path (supported=false where perf_event_open is "
                   "unavailable)");
  flags->AddInt("reps", default_reps, "timed repetitions per case");
  flags->AddInt("warmup", default_warmup,
                "untimed warmup executions per case");
}

Result<BenchConfig> BenchConfigFromFlags(const FlagParser& flags,
                                         std::string suite, uint64_t seed) {
  int64_t reps = flags.GetInt("reps");
  int64_t warmup = flags.GetInt("warmup");
  if (reps < 1) return Status::InvalidArgument("--reps must be >= 1");
  if (warmup < 0) return Status::InvalidArgument("--warmup must be >= 0");
  BenchConfig config;
  config.suite = std::move(suite);
  config.seed = seed;
  config.warmup = static_cast<uint64_t>(warmup);
  config.repetitions = static_cast<uint64_t>(reps);
  return config;
}

Status MaybeWriteBenchJson(const BenchRunner& runner,
                           const FlagParser& flags) {
  const std::string& path = flags.GetString("json");
  if (!path.empty()) {
    PREFCOVER_RETURN_NOT_OK(runner.WriteJsonFile(path));
    std::fprintf(stderr, "wrote %zu case(s) to %s\n",
                 runner.results().size(), path.c_str());
  }
  const std::string& perf_path = flags.GetString("perf_json");
  if (!perf_path.empty()) {
    PREFCOVER_RETURN_NOT_OK(
        WriteFileAtomic(perf_path, runner.PerfCountersJson().Dump()));
    std::fprintf(stderr, "wrote perf counters for %zu case(s) to %s\n",
                 runner.results().size(), perf_path.c_str());
  }
  return Status::OK();
}

}  // namespace prefcover
