// The benchmark harness: runs BenchCases with pinned seeds, warmup and
// repetition counts, wall + CPU timing, percentile summaries, environment
// capture, and emits the stable-schema BENCH_core.json perf-trajectory
// document (schema documented in EXPERIMENTS.md and validated by
// ValidateBenchDocument).

#ifndef PREFCOVER_BENCH_BENCH_RUNNER_H_
#define PREFCOVER_BENCH_BENCH_RUNNER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_case.h"
#include "bench/env_capture.h"
#include "bench/json.h"
#include "obs/perf_counters.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/table_printer.h"

namespace prefcover {

/// \brief Current BENCH_core.json schema version. Bump on any
/// backwards-incompatible change and update EXPERIMENTS.md.
inline constexpr int kBenchSchemaVersion = 1;

/// \brief Run-level harness configuration (the "config" JSON object).
struct BenchConfig {
  /// Suite id, e.g. "micro_core" or "fig4e_parallel_speedup".
  std::string suite;

  /// Seed the cases were built from. The harness itself draws no
  /// randomness; the seed is recorded so a run is reproducible.
  uint64_t seed = 42;

  /// Untimed executions of each case before measurement starts.
  uint64_t warmup = 1;

  /// Timed executions per case; percentiles summarize these.
  uint64_t repetitions = 5;
};

/// \brief Percentile summary of one case's repetitions, in milliseconds.
struct LatencySummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;

  /// Computed over `samples_ms` with linear interpolation.
  static LatencySummary FromSamples(std::vector<double> samples_ms);

  JsonValue ToJson() const;
};

/// \brief Measured outcome of one case.
struct BenchResult {
  // Identity, copied from the case.
  std::string name;
  std::string profile;
  std::string variant;
  std::string solver;
  uint64_t n = 0;
  uint64_t k = 0;
  uint64_t threads = 1;

  LatencySummary wall;
  LatencySummary cpu;

  /// Deterministic outputs (sorted by name): solver telemetry, covers.
  std::vector<std::pair<std::string, double>> counters;

  /// Perf-event totals accumulated over the timed repetitions (marked
  /// unsupported where perf_event_open is unavailable). Host-dependent:
  /// emitted as the per-case "perf_counters" subtree, which the
  /// determinism comparison skips like the run-level metrics subtree.
  obs::PerfCounterValues perf;
};

/// \brief Runs cases and accumulates results for emission.
class BenchRunner {
 public:
  explicit BenchRunner(BenchConfig config);

  /// Runs `bench_case` (warmup + repetitions) and appends its result.
  /// Case names must be unique within the run.
  Status Run(const BenchCase& bench_case);

  /// Times `cases` round-robin: every case's warmup first, then one timed
  /// repetition of each case per pass. Host drift during the group then
  /// reaches every case alike, so a same-process ratio between two of
  /// them compares repetitions taken moments apart. Returns the results
  /// in `cases` order without appending them (Add does), so a suite can
  /// keep its case order while timing a ratio gate's cases together.
  Result<std::vector<BenchResult>> Measure(std::span<const BenchCase> cases);

  /// Appends a measured result; names must be unique within the run.
  Status Add(BenchResult result);

  const BenchConfig& config() const { return config_; }
  const std::vector<BenchResult>& results() const { return results_; }

  /// The full BENCH_core.json document.
  JsonValue ToJson() const;

  /// Standalone perf-counter document for artifact upload:
  /// `{"schema_version": 1, "suite": ..., "supported": bool,
  ///   "cases": [{"name": ..., "perf_counters": {...}}]}`.
  JsonValue PerfCountersJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJsonFile(const std::string& path) const;

  /// Human-readable per-case summary (name, p50/p95 wall, CPU p50, and —
  /// when the host supports perf events — IPC and cache-miss rate).
  TablePrinter SummaryTable() const;

  /// Whether any completed case measured at least one perf event.
  bool AnyPerfSupported() const;

 private:
  BenchConfig config_;
  EnvCapture env_;
  obs::PerfCounterGroup perf_group_;
  std::vector<BenchResult> results_;
};

/// \brief Registers the harness flags every ported bench binary shares:
/// --json (output path; empty = don't write), --reps, --warmup, and
/// --perf_json (standalone perf-counter document path; empty = don't
/// write).
void AddBenchFlags(FlagParser* flags, int64_t default_reps,
                   int64_t default_warmup);

/// \brief Builds a BenchConfig from parsed AddBenchFlags values.
/// Rejects reps < 1 or warmup < 0.
Result<BenchConfig> BenchConfigFromFlags(const FlagParser& flags,
                                         std::string suite, uint64_t seed);

/// \brief Emission helper shared by the bench binaries: writes the JSON
/// file when --json was given, the perf-counter document when
/// --perf_json was given, and prints a confirmation line for each.
Status MaybeWriteBenchJson(const BenchRunner& runner,
                           const FlagParser& flags);

}  // namespace prefcover

#endif  // PREFCOVER_BENCH_BENCH_RUNNER_H_
