// prefcover — command-line front end to the Preference Cover library.
//
// Subcommands (run `prefcover <command> --help` for flags):
//   generate    synthesize a profile-shaped clickstream CSV
//   construct   build a preference graph (.pcg) from a clickstream CSV,
//               with automatic variant selection
//   stats       describe a graph file
//   solve       select k items maximizing the cover (--workers runs it
//               distributed over dist-worker processes)
//   threshold   smallest set reaching a coverage target
//   export      dump a .pcg graph to nodes/edges CSV
//   serve       answer substitute queries over a serving index
//   dist-worker candidate-shard worker for the distributed greedy solve
//   version     print the build version
//
// Typical session:
//   prefcover generate --profile=YC --scale=0.01 --out=clicks.csv
//   prefcover construct --input=clicks.csv --out=graph.pcg
//   prefcover solve --graph=graph.pcg --k=500 --out=retained.csv
//       --index_out=index.pcsidx
//   prefcover serve --index=index.pcsidx

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <atomic>
#include <chrono>
#include <thread>

#include "bench/env_capture.h"
#include "bench/metrics_json.h"
#include "bench/pareto_json.h"
#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "clickstream/variant_selection.h"
#include "core/checkpoint.h"
#include "core/complementary_solver.h"
#include "core/constrained_solver.h"
#include "core/greedy_solver.h"
#include "dist/distributed_solver.h"
#include "dist/worker.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "obs/exposition.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "serve/transport.h"
#include "synth/dataset_profiles.h"
#include "util/cancellation.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/string_util.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace prefcover;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Exit code for a solve truncated by SIGINT/SIGTERM: nonzero so scripts
// notice the budget was the signal's, not the solver's — but distinct
// from 1 (error) and 2 (usage) so the partial result is recognizable.
constexpr int kExitSignalTruncated = 3;

// Upper bound of the flags that narrow to uint32_t.
constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

// Uninstalls the process signal->CancelToken hook when the command
// returns, so the token (a stack local) never dangles behind the handler.
struct ScopedSignalCancel {
  explicit ScopedSignalCancel(CancelToken* token) {
    InstallSignalCancel(token);
  }
  ~ScopedSignalCancel() { InstallSignalCancel(nullptr); }
};

// Returns 0/1 exit code semantics from flag parsing; 2 = --help shown.
int ParseOrExit(FlagParser* flags, int argc, char** argv) {
  Status st = flags->Parse(argc, argv);
  if (st.IsOutOfRange()) return 2;
  if (!st.ok()) {
    Fail(st);
    return 1;
  }
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  FlagParser flags("prefcover generate: synthesize a clickstream CSV");
  flags.AddString("profile", "YC", "dataset profile: PE|PF|PM|YC");
  flags.AddDouble("scale", 0.01, "scale factor in (0,1]");
  flags.AddInt("seed", 42, "RNG seed");
  flags.AddString("out", "clickstream.csv", "output CSV path");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;

  auto profile = ParseProfileName(flags.GetString("profile"));
  if (!profile.ok()) return Fail(profile.status());
  auto cs = GenerateProfileClickstream(
      *profile, flags.GetDouble("scale"),
      static_cast<uint64_t>(flags.GetInt("seed")));
  if (!cs.ok()) return Fail(cs.status());
  Status st = WriteClickstreamCsvFile(*cs, flags.GetString("out"));
  if (!st.ok()) return Fail(st);
  ClickstreamStats stats = cs->ComputeStats();
  std::printf("wrote %s\n%s\n", flags.GetString("out").c_str(),
              stats.ToString().c_str());
  return 0;
}

int CmdConstruct(int argc, char** argv) {
  FlagParser flags(
      "prefcover construct: clickstream CSV -> preference graph (.pcg)");
  flags.AddString("input", "clickstream.csv", "clickstream CSV path");
  flags.AddString("out", "graph.pcg", "output graph path");
  flags.AddString("variant", "auto",
                  "independent|normalized|auto (auto applies the paper's "
                  "selection rules)");
  flags.AddDouble("min-edge-weight", 0.0, "drop edges weaker than this");
  flags.AddInt("min-purchases", 0,
               "drop edges out of items with fewer purchases");
  flags.AddBool("streaming", false,
                "single-pass construction without loading sessions into "
                "memory (for very large inputs; requires an explicit "
                "--variant). A session id seen again after other sessions "
                "starts a new session");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;

  GraphConstructionOptions options;
  options.min_edge_weight = flags.GetDouble("min-edge-weight");
  options.min_purchases_for_edges =
      static_cast<size_t>(flags.GetInt("min-purchases"));
  const std::string& variant_flag = flags.GetString("variant");

  Result<PreferenceGraph> graph = Status::Internal("unset");
  if (flags.GetBool("streaming")) {
    // Variant selection needs the sessions in memory; the streaming path
    // therefore requires the caller to commit to a variant.
    auto variant = ParseVariant(variant_flag);
    if (!variant.ok()) {
      return Fail(Status::InvalidArgument(
          "--streaming requires --variant=independent|normalized"));
    }
    options.variant = *variant;
    graph = BuildPreferenceGraphStreamingFile(flags.GetString("input"),
                                              options);
  } else {
    auto cs = ReadClickstreamCsvFile(flags.GetString("input"));
    if (!cs.ok()) return Fail(cs.status());
    if (variant_flag == "auto") {
      VariantRecommendation rec = RecommendVariant(*cs);
      std::printf("variant selection: %s\n", rec.ToString().c_str());
      options.variant = rec.variant;
    } else {
      auto variant = ParseVariant(variant_flag);
      if (!variant.ok()) return Fail(variant.status());
      options.variant = *variant;
    }
    graph = BuildPreferenceGraph(*cs, options);
  }
  if (!graph.ok()) return Fail(graph.status());
  Status st = WriteGraphBinaryFile(*graph, flags.GetString("out"));
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s: %zu nodes, %zu edges (variant hint: %s)\n",
              flags.GetString("out").c_str(), graph->NumNodes(),
              graph->NumEdges(),
              std::string(VariantName(options.variant)).c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  FlagParser flags("prefcover stats: describe a graph file");
  flags.AddString("graph", "graph.pcg", "graph path");
  flags.AddBool("degrees", false, "also print the out-degree histogram");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;
  auto graph = ReadGraphBinaryFile(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());
  GraphStats stats = ComputeGraphStats(*graph);
  std::printf("%s\n", stats.ToString().c_str());
  std::printf("normalized-admissible: %s\n",
              IsNormalizedAdmissible(*graph) ? "yes" : "no");
  if (flags.GetBool("degrees")) {
    double hi = static_cast<double>(stats.max_out_degree) + 1.0;
    Histogram degrees(0.0, hi, std::min<size_t>(16, stats.max_out_degree + 1));
    for (NodeId v = 0; v < graph->NumNodes(); ++v) {
      degrees.Add(static_cast<double>(graph->OutDegree(v)));
    }
    std::printf("\nout-degree distribution:\n%s",
                degrees.ToString().c_str());
  }
  return 0;
}

Result<Variant> ResolveVariant(const std::string& name,
                               const PreferenceGraph& graph) {
  if (name == "auto") {
    // Without session data, pick Normalized only when admissible.
    return IsNormalizedAdmissible(graph) ? Variant::kNormalized
                                         : Variant::kIndependent;
  }
  return ParseVariant(name);
}

Status WriteSolutionCsv(const PreferenceGraph& graph,
                        const Solution& solution, const std::string& path) {
  return WriteFileAtomic(path, [&](std::ostream* out) {
    CsvWriter writer(out);
    writer.WriteRecord({"rank", "item_id", "label", "weight",
                        "cover_after_prefix"});
    for (size_t i = 0; i < solution.items.size(); ++i) {
      NodeId v = solution.items[i];
      char weight[32], cover[32];
      std::snprintf(weight, sizeof(weight), "%.10g", graph.NodeWeight(v));
      std::snprintf(cover, sizeof(cover), "%.10g",
                    solution.cover_after_prefix[i]);
      writer.WriteRecord({std::to_string(i + 1), std::to_string(v),
                          graph.DisplayName(v), weight, cover});
    }
    return Status::OK();
  });
}

// --- solve --budget/--costs/--quota/--pareto_out helpers ------------------

// Reads an `item_id,cost` CSV into a dense cost vector; items absent from
// the file keep unit cost. A first record whose id is non-numeric is
// treated as a header and skipped.
Result<std::vector<double>> ReadCostsCsv(const std::string& path, size_t n) {
  std::ifstream input(path);
  if (!input) return Status::IOError("cannot open costs file " + path);
  std::vector<double> costs(n, 1.0);
  CsvReader reader(&input);
  std::vector<std::string> fields;
  while (reader.Next(&fields)) {
    if (fields.size() == 1 && fields[0].empty()) continue;
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          path + ": record " + std::to_string(reader.record_number()) +
          " must be `item_id,cost`");
    }
    auto id = ParseUint32(fields[0]);
    if (!id.ok()) {
      if (reader.record_number() == 1) continue;  // header row
      return id.status();
    }
    if (*id >= n) {
      return Status::InvalidArgument(path + ": item " + fields[0] +
                                     " is out of range (graph has " +
                                     std::to_string(n) + " nodes)");
    }
    auto value = ParseDouble(fields[1]);
    if (!value.ok()) return value.status();
    costs[*id] = *value;
  }
  PREFCOVER_RETURN_NOT_OK(reader.status());
  return costs;
}

// Reads an `item_id,category` CSV; every item must be assigned (quotas
// over a partial assignment would silently mean "category 0").
Result<std::vector<uint32_t>> ReadCategoriesCsv(const std::string& path,
                                                size_t n) {
  std::ifstream input(path);
  if (!input) return Status::IOError("cannot open categories file " + path);
  std::vector<uint32_t> categories(n, 0);
  std::vector<bool> seen(n, false);
  CsvReader reader(&input);
  std::vector<std::string> fields;
  while (reader.Next(&fields)) {
    if (fields.size() == 1 && fields[0].empty()) continue;
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          path + ": record " + std::to_string(reader.record_number()) +
          " must be `item_id,category`");
    }
    auto id = ParseUint32(fields[0]);
    if (!id.ok()) {
      if (reader.record_number() == 1) continue;  // header row
      return id.status();
    }
    if (*id >= n) {
      return Status::InvalidArgument(path + ": item " + fields[0] +
                                     " is out of range (graph has " +
                                     std::to_string(n) + " nodes)");
    }
    auto category = ParseUint32(fields[1]);
    if (!category.ok()) return category.status();
    categories[*id] = *category;
    seen[*id] = true;
  }
  PREFCOVER_RETURN_NOT_OK(reader.status());
  for (size_t v = 0; v < n; ++v) {
    if (!seen[v]) {
      return Status::InvalidArgument(
          path + ": item " + std::to_string(v) +
          " has no category (the file must assign every item)");
    }
  }
  return categories;
}

// Parses `cat:min[:max],...` into a quota vector covering every category
// present in `categories`; unmentioned categories stay unconstrained.
Result<std::vector<CategoryQuota>> ParseQuotaSpec(
    const std::string& spec, const std::vector<uint32_t>& categories) {
  uint32_t num_categories = 0;
  for (uint32_t c : categories) {
    num_categories = std::max(num_categories, c + 1);
  }
  std::vector<CategoryQuota> quotas(num_categories);
  for (const std::string& field : SplitString(spec, ',')) {
    if (field.empty()) continue;
    std::vector<std::string> parts = SplitString(field, ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument(
          "--quota entries must be `cat:min[:max]`, got `" + field + "`");
    }
    auto category = ParseUint32(parts[0]);
    if (!category.ok()) return category.status();
    if (*category >= num_categories) {
      return Status::InvalidArgument(
          "--quota category " + parts[0] +
          " does not appear in --categories");
    }
    auto min_items = ParseUint32(parts[1]);
    if (!min_items.ok()) return min_items.status();
    quotas[*category].min_items = *min_items;
    if (parts.size() == 3) {
      auto max_items = ParseUint32(parts[2]);
      if (!max_items.ok()) return max_items.status();
      quotas[*category].max_items = *max_items;
    }
  }
  return quotas;
}

// `solve --workers=host:port[,...]`: the distributed lazy solve over
// running dist-worker processes, fanned out on `threads` threads
// (0 = serially).
Result<Solution> SolveOnWorkers(const PreferenceGraph& graph, size_t k,
                                const GreedyOptions& options,
                                const std::string& workers,
                                size_t threads) {
#if defined(__unix__) || defined(__APPLE__)
  dist::DistSolveOptions dist_options;
  for (const std::string& field : SplitString(workers, ',')) {
    if (field.empty()) continue;
    const size_t colon = field.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "worker endpoint must be host:port, got " + field);
    }
    auto port = ParseUint32(field.substr(colon + 1));
    if (!port.ok()) return port.status();
    if (*port == 0 || *port > 65535) {
      return Status::InvalidArgument("bad worker port in " + field);
    }
    dist::DistWorkerEndpoint endpoint;
    endpoint.host = field.substr(0, colon);
    endpoint.port = static_cast<uint16_t>(*port);
    dist_options.workers.push_back(endpoint);
  }
  if (dist_options.workers.empty()) {
    return Status::InvalidArgument(
        "--workers requires at least one host:port endpoint");
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    dist_options.pool = pool.get();
  }
  return dist::SolveGreedyDistributed(graph, k, options, dist_options);
#else
  (void)graph, (void)k, (void)options, (void)workers, (void)threads;
  return Status::Unimplemented("--workers needs a POSIX build");
#endif
}

int CmdSolve(int argc, char** argv) {
  FlagParser flags("prefcover solve: select k items maximizing the cover");
  flags.AddString("graph", "graph.pcg", "graph path");
  flags.AddInt("k", 100, "number of items to retain");
  flags.AddString("variant", "auto", "independent|normalized|auto");
  flags.AddString("algorithm", "lazy",
                  "greedy|lazy|parallel|lazy-parallel|constrained|"
                  "topk-w|topk-c|random");
  flags.AddInt("threads", 4,
               "threads for --algorithm=parallel|lazy-parallel, or the "
               "--workers fan-out (0 = serial)");
  flags.AddString("workers", "",
                  "comma-separated dist-worker endpoints "
                  "`host:port[,...]`: solve distributed over them "
                  "(--algorithm=lazy only; byte-identical to it, see "
                  "DISTRIBUTED.md)");
  flags.AddInt("seed", 42, "seed for --algorithm=random");
  flags.AddBool("stats", false,
                "print solver telemetry (gain evaluations, heap pops, "
                "stale ratio, pool utilization)");
  flags.AddString("out", "", "optional CSV for the retained items");
  flags.AddString("coverage-out", "",
                  "optional per-item coverage CSV (whole catalog)");
  flags.AddString("index_out", "",
                  "optional serving-index (PCSIDX01) output for "
                  "`prefcover serve` / serve_loadgen");
  flags.AddInt("index_top_m", 8,
               "substitutes stored per node in --index_out");
  flags.AddBool("report", false, "print the full solution report");
  flags.AddString("force-include", "",
                  "comma-separated item ids that must be retained "
                  "(greedy algorithms only)");
  flags.AddString("force-exclude", "",
                  "comma-separated item ids that must not be retained "
                  "(greedy algorithms only)");
  flags.AddString("clicks", "",
                  "clickstream CSV to construct the graph from in-process "
                  "(streaming, instead of --graph; requires an explicit "
                  "--variant). A session id seen again after other "
                  "sessions starts a new session");
  flags.AddString("trace_out", "",
                  "write a Chrome trace-event JSON of this run to the "
                  "path (open in Perfetto / chrome://tracing)");
  flags.AddString("metrics_out", "",
                  "write a JSON snapshot of the process metrics registry "
                  "to the path");
  flags.AddInt("deadline_ms", 0,
               "wall-clock budget in milliseconds; 0 = none. An expired "
               "deadline returns the best prefix found so far (exit 0, "
               "stats marked TRUNCATED), never an error");
  flags.AddString("checkpoint_path", "",
                  "write a crash-safe solve checkpoint to this path every "
                  "--checkpoint_every selections (greedy algorithms only)");
  flags.AddInt("checkpoint_every", 16,
               "checkpoint cadence in selections (>= 1)");
  flags.AddBool("resume", false,
                "resume from --checkpoint_path when it exists: the "
                "checkpointed prefix is replayed and the final solution "
                "is identical to an uninterrupted run");
  flags.AddDouble("budget", 0.0,
                  "inventory-cost budget; 0 = none. Any of "
                  "--budget/--costs/--quota routes the solve through the "
                  "constrained cost-ratio greedy");
  flags.AddString("costs", "",
                  "per-item cost CSV (`item_id,cost`; unlisted items "
                  "cost 1.0), used by --budget and --pareto_out");
  flags.AddString("categories", "",
                  "per-item category CSV (`item_id,category`; must "
                  "assign every item), required by --quota");
  flags.AddString("quota", "",
                  "comma-separated per-category retention quotas "
                  "`cat:min[:max]`; unmentioned categories are "
                  "unconstrained (requires --categories)");
  flags.AddString("pareto_out", "",
                  "sweep budgets and write the non-dominated "
                  "coverage-vs-cost frontier JSON to this path instead "
                  "of solving once (uses --costs; quotas unsupported)");
  flags.AddInt("pareto_points", 16,
               "budget-schedule size for --pareto_out (>= 2)");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;

  // One token for the whole command: SIGINT/SIGTERM and --deadline_ms
  // both trip it, construction and solve both watch it.
  CancelToken cancel;
  const int64_t deadline_ms = flags.GetInt("deadline_ms");
  if (deadline_ms < 0) {
    return Fail(Status::InvalidArgument("--deadline_ms must be >= 0"));
  }
  if (deadline_ms > 0) {
    cancel.SetTimeout(static_cast<double>(deadline_ms) / 1000.0);
  }
  // Flags that narrow to unsigned types: reject what would wrap.
  if (flags.GetInt("threads") < 0) {
    return Fail(Status::InvalidArgument("--threads must be >= 0"));
  }
  if (flags.GetInt("checkpoint_every") > kMaxU32) {
    return Fail(Status::InvalidArgument(
        "--checkpoint_every must be <= " + std::to_string(kMaxU32)));
  }
  const int64_t index_top_m = flags.GetInt("index_top_m");
  if (index_top_m < 0 || index_top_m > kMaxU32) {
    return Fail(Status::InvalidArgument(
        "--index_top_m must be in [0, " + std::to_string(kMaxU32) + "]"));
  }
  ScopedSignalCancel signal_hookup(&cancel);

  // Arm tracing before any traced work (construction included) runs.
  const std::string& trace_out = flags.GetString("trace_out");
  if (!trace_out.empty() && !obs::Tracing::Start()) {
    std::fprintf(stderr,
                 "warning: tracing was compiled out "
                 "(PREFCOVER_ENABLE_TRACING=OFF); %s will be empty\n",
                 trace_out.c_str());
  }

  // Exports run on success, cancellation AND failure paths — the trace
  // of a cancelled or failed run is often exactly what one wants to see.
  auto export_observability = [&flags, &trace_out]() -> Status {
    if (!trace_out.empty()) {
      PREFCOVER_FAILPOINT_STATUS("trace.export");
      obs::Tracing::Stop();
      std::ostringstream json;
      obs::ChromeTraceSink sink(&json);
      obs::Tracing::Flush(&sink);
      PREFCOVER_RETURN_NOT_OK(WriteFileAtomic(trace_out, json.str()));
      std::printf(
          "wrote %s (%llu event(s) dropped to ring overflow)\n",
          trace_out.c_str(),
          static_cast<unsigned long long>(obs::Tracing::DroppedEvents()));
    }
    const std::string& metrics_out = flags.GetString("metrics_out");
    if (!metrics_out.empty()) {
      PREFCOVER_FAILPOINT_STATUS("metrics.export");
      PREFCOVER_RETURN_NOT_OK(WriteFileAtomic(
          metrics_out,
          MetricsSnapshotToJson(obs::MetricsRegistry::Global().Snapshot())
              .Dump()));
      std::printf("wrote %s\n", metrics_out.c_str());
    }
    return Status::OK();
  };
  auto fail_with_observability = [&export_observability](
                                     const Status& status) {
    Status obs_st = export_observability();
    if (!obs_st.ok()) {
      std::fprintf(stderr, "warning: %s\n", obs_st.ToString().c_str());
    }
    return Fail(status);
  };

  Result<PreferenceGraph> graph = Status::Internal("unset");
  if (!flags.GetString("clicks").empty()) {
    auto clicks_variant = ParseVariant(flags.GetString("variant"));
    if (!clicks_variant.ok()) {
      return Fail(Status::InvalidArgument(
          "--clicks requires --variant=independent|normalized (streaming "
          "construction cannot auto-select)"));
    }
    GraphConstructionOptions construction;
    construction.variant = *clicks_variant;
    construction.cancel = &cancel;
    graph = BuildPreferenceGraphStreamingFile(flags.GetString("clicks"),
                                              construction);
  } else {
    graph = ReadGraphBinaryFile(flags.GetString("graph"));
  }
  if (!graph.ok()) return fail_with_observability(graph.status());
  auto variant = ResolveVariant(flags.GetString("variant"), *graph);
  if (!variant.ok()) return Fail(variant.status());

  const std::string& algo_name = flags.GetString("algorithm");
  Algorithm algorithm;
  if (algo_name == "greedy") {
    algorithm = Algorithm::kGreedy;
  } else if (algo_name == "lazy") {
    algorithm = Algorithm::kGreedyLazy;
  } else if (algo_name == "parallel") {
    algorithm = Algorithm::kGreedyParallel;
  } else if (algo_name == "lazy-parallel") {
    algorithm = Algorithm::kGreedyLazyParallel;
  } else if (algo_name == "topk-w") {
    algorithm = Algorithm::kTopKWeight;
  } else if (algo_name == "topk-c") {
    algorithm = Algorithm::kTopKCoverage;
  } else if (algo_name == "random") {
    algorithm = Algorithm::kRandom;
  } else if (algo_name == "constrained") {
    algorithm = Algorithm::kConstrainedGreedy;
  } else {
    return Fail(Status::InvalidArgument("unknown algorithm " + algo_name));
  }

  GreedyOptions greedy_options;
  greedy_options.variant = *variant;
  for (const std::string& field :
       SplitString(flags.GetString("force-include"), ',')) {
    if (field.empty()) continue;
    auto id = ParseUint32(field);
    if (!id.ok()) return Fail(id.status());
    greedy_options.force_include.push_back(*id);
  }
  for (const std::string& field :
       SplitString(flags.GetString("force-exclude"), ',')) {
    if (field.empty()) continue;
    auto id = ParseUint32(field);
    if (!id.ok()) return Fail(id.status());
    greedy_options.force_exclude.push_back(*id);
  }
  const bool constrained = !greedy_options.force_include.empty() ||
                           !greedy_options.force_exclude.empty();
  if (flags.GetInt("k") <= 0) {
    return Fail(Status::InvalidArgument("--k must be >= 1, got " +
                                        std::to_string(flags.GetInt("k"))));
  }
  size_t k = static_cast<size_t>(flags.GetInt("k"));
  // A budget beyond the catalog is satisfiable — by the whole catalog.
  // Clamp with a warning instead of erroring so scripts can pass a
  // generous bound without sizing the graph first.
  if (k > graph->NumNodes()) {
    std::fprintf(stderr,
                 "warning: --k %zu exceeds the catalog size %zu; "
                 "clamping to %zu\n",
                 k, graph->NumNodes(), graph->NumNodes());
    obs::MetricsRegistry::Global().GetCounter("solver.k_clamped")
        ->Increment();
    k = graph->NumNodes();
  }
  const size_t threads = static_cast<size_t>(flags.GetInt("threads"));

  // Everything routes through the eval runner (which forwards the full
  // GreedyOptions to the greedy family), so traced solves carry the
  // eval.run_algorithm phase span above the solver's own spans.
  const bool greedy_family = algorithm == Algorithm::kGreedy ||
                             algorithm == Algorithm::kGreedyLazy ||
                             algorithm == Algorithm::kGreedyParallel ||
                             algorithm == Algorithm::kGreedyLazyParallel;
  if (constrained && !greedy_family) {
    return Fail(Status::InvalidArgument(
        "--force-include/--force-exclude require a greedy algorithm"));
  }

  // --- constraint-spec assembly (--budget/--costs/--quota) ---
  const double budget_flag = flags.GetDouble("budget");
  if (!(budget_flag >= 0.0)) {  // negation also rejects NaN
    return Fail(Status::InvalidArgument("--budget must be >= 0"));
  }
  ConstraintSpec spec;
  bool use_spec = algorithm == Algorithm::kConstrainedGreedy;
  if (budget_flag > 0.0) {
    spec.budget = budget_flag;
    use_spec = true;
  }
  if (!flags.GetString("costs").empty()) {
    auto costs = ReadCostsCsv(flags.GetString("costs"), graph->NumNodes());
    if (!costs.ok()) return Fail(costs.status());
    spec.costs = std::move(*costs);
    use_spec = true;
  }
  if (!flags.GetString("quota").empty()) {
    if (flags.GetString("categories").empty()) {
      return Fail(Status::InvalidArgument("--quota requires --categories"));
    }
    auto categories =
        ReadCategoriesCsv(flags.GetString("categories"), graph->NumNodes());
    if (!categories.ok()) return Fail(categories.status());
    auto quotas = ParseQuotaSpec(flags.GetString("quota"), *categories);
    if (!quotas.ok()) return Fail(quotas.status());
    spec.categories = std::move(*categories);
    spec.quotas = std::move(*quotas);
    use_spec = true;
  } else if (!flags.GetString("categories").empty()) {
    return Fail(Status::InvalidArgument(
        "--categories without --quota has no effect; pass --quota"));
  }

  // --pareto_out: a budget sweep replaces the single solve.
  const std::string& pareto_out = flags.GetString("pareto_out");
  const std::string& workers = flags.GetString("workers");
  if (!workers.empty()) {
    if (algorithm != Algorithm::kGreedyLazy) {
      return Fail(Status::InvalidArgument(
          "--workers runs the distributed lazy solve; it requires "
          "--algorithm=lazy"));
    }
    if (use_spec || !pareto_out.empty()) {
      return Fail(Status::InvalidArgument(
          "--workers does not support --budget/--costs/--quota/"
          "--pareto_out"));
    }
  }
  if (!pareto_out.empty()) {
    if (spec.HasQuotas()) {
      return Fail(Status::InvalidArgument(
          "--pareto_out sweeps budgets over costs only; quotas are "
          "unsupported"));
    }
    const int64_t pareto_points = flags.GetInt("pareto_points");
    if (pareto_points < 2) {
      return Fail(Status::InvalidArgument("--pareto_points must be >= 2"));
    }
    ParetoSweepOptions sweep;
    sweep.variant = *variant;
    sweep.costs = spec.costs;
    sweep.num_points = static_cast<size_t>(pareto_points);
    sweep.max_items = k;
    auto frontier = SolveParetoFrontier(*graph, sweep);
    if (!frontier.ok()) return fail_with_observability(frontier.status());
    ParetoArtifactMeta meta;
    meta.instance = !flags.GetString("clicks").empty()
                        ? flags.GetString("clicks")
                        : flags.GetString("graph");
    meta.variant = *variant;
    meta.num_nodes = graph->NumNodes();
    meta.points_requested = static_cast<size_t>(pareto_points);
    Status pareto_st = WriteParetoArtifact(pareto_out, *frontier, meta);
    if (!pareto_st.ok()) return fail_with_observability(pareto_st);
    std::printf("wrote %s (pareto frontier: %zu non-dominated point(s), "
                "%lld budget(s) swept)\n",
                pareto_out.c_str(), frontier->size(),
                static_cast<long long>(pareto_points));
    Status export_st = export_observability();
    if (!export_st.ok()) return Fail(export_st);
    return 0;
  }

  if (use_spec && algorithm != Algorithm::kConstrainedGreedy) {
    if (!greedy_family) {
      return Fail(Status::InvalidArgument(
          "--budget/--costs/--quota require a greedy algorithm (or "
          "--algorithm=constrained)"));
    }
    algorithm = Algorithm::kConstrainedGreedy;
  }
  greedy_options.cancel = &cancel;

  const std::string& checkpoint_path = flags.GetString("checkpoint_path");
  const int64_t checkpoint_every = flags.GetInt("checkpoint_every");
  if (!checkpoint_path.empty() || flags.GetBool("resume")) {
    if (!greedy_family || algorithm == Algorithm::kConstrainedGreedy) {
      return Fail(Status::InvalidArgument(
          "--checkpoint_path/--resume require an unconstrained greedy "
          "algorithm"));
    }
    if (checkpoint_path.empty()) {
      return Fail(Status::InvalidArgument(
          "--resume requires --checkpoint_path"));
    }
    if (checkpoint_every <= 0) {
      return Fail(Status::InvalidArgument(
          "--checkpoint_every must be >= 1"));
    }
    greedy_options.checkpoint.path = checkpoint_path;
    greedy_options.checkpoint.every_rounds =
        static_cast<uint32_t>(checkpoint_every);
  }
  if (flags.GetBool("resume")) {
    auto checkpoint = ReadCheckpoint(checkpoint_path);
    if (checkpoint.ok()) {
      auto prefix = ValidateCheckpointForResume(*checkpoint, *graph, k,
                                                greedy_options);
      if (!prefix.ok()) return Fail(prefix.status());
      std::printf("resuming from %s: replaying %zu selection(s)\n",
                  checkpoint_path.c_str(), prefix->size());
      greedy_options.checkpoint.resume_prefix = std::move(*prefix);
    } else if (checkpoint.status().IsIOError()) {
      // No checkpoint yet (first run, or it never got written before the
      // crash): a cold start is the correct resume of "nothing".
      std::printf("no checkpoint at %s; starting fresh\n",
                  checkpoint_path.c_str());
    } else {
      // Corrupt or stale files are refused loudly — resuming the wrong
      // prefix would silently produce a non-greedy solution.
      return Fail(checkpoint.status());
    }
  }

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  Result<Solution> solution =
      !workers.empty()
          ? SolveOnWorkers(*graph, k, greedy_options, workers, threads)
      : algorithm == Algorithm::kConstrainedGreedy
          ? RunAlgorithm(algorithm, *graph, k, greedy_options, spec, &rng,
                         threads)
          : RunAlgorithm(algorithm, *graph, k, greedy_options, &rng,
                         threads);
  if (!solution.ok()) return fail_with_observability(solution.status());

  std::printf("%s (%s variant): retained %zu of %zu items, cover %.4f%% "
              "in %s\n",
              workers.empty() ? AlgorithmDisplayName(algorithm).c_str()
                              : "Greedy(dist)",
              std::string(VariantName(*variant)).c_str(),
              solution->items.size(), graph->NumNodes(),
              solution->cover * 100.0,
              FormatDuration(solution->solve_seconds).c_str());
  if (algorithm == Algorithm::kConstrainedGreedy) {
    double total_cost = 0.0;
    for (NodeId item : solution->items) total_cost += spec.CostOf(item);
    if (spec.HasBudget()) {
      std::printf("constraints: total cost %.6g of budget %.6g\n",
                  total_cost, spec.budget);
    } else {
      std::printf("constraints: total cost %.6g\n", total_cost);
    }
  }
  const bool signal_truncated =
      solution->stats.truncated && LastCancelSignal() != 0;
  if (solution->stats.truncated) {
    std::printf("solve truncated by %s after %zu selection(s); the prefix "
                "above is a valid (shorter) greedy solution\n",
                signal_truncated ? "signal" : "deadline",
                solution->items.size());
  }
  if (flags.GetBool("stats")) {
    std::printf("stats: %s\n", solution->stats.ToString().c_str());
  }
  if (flags.GetBool("report")) {
    auto report = BuildSolutionReport(*graph, *solution);
    if (!report.ok()) return Fail(report.status());
    PrintSolutionReport(*report, &std::cout);
  }
  if (!flags.GetString("out").empty()) {
    Status st = WriteSolutionCsv(*graph, *solution, flags.GetString("out"));
    if (!st.ok()) return Fail(st);
    std::printf("wrote %s\n", flags.GetString("out").c_str());
  }
  if (!flags.GetString("coverage-out").empty()) {
    std::ofstream cov(flags.GetString("coverage-out"));
    if (!cov) return Fail(Status::IOError("cannot open coverage-out"));
    Status st = WriteCoverageCsv(*graph, *solution, &cov);
    if (!st.ok()) return Fail(st);
    // Output that fits in the stream's buffer reaches the file only here.
    if (!cov.flush()) {
      return Fail(Status::IOError("failed writing coverage-out"));
    }
    std::printf("wrote %s\n", flags.GetString("coverage-out").c_str());
  }
  if (!flags.GetString("index_out").empty()) {
    serve::ServingIndexOptions index_options;
    index_options.top_m = static_cast<size_t>(index_top_m);
    auto index = serve::ServingIndex::Build(*graph, *solution,
                                            index_options);
    if (!index.ok()) return Fail(index.status());
    Status st = index->Save(flags.GetString("index_out"));
    if (!st.ok()) return Fail(st);
    std::printf("wrote %s (serving index: %zu nodes, %zu retained, "
                "top_m=%zu)\n",
                flags.GetString("index_out").c_str(), index->NumNodes(),
                index->NumRetained(), index->top_m());
  }
  Status export_st = export_observability();
  if (!export_st.ok()) return Fail(export_st);
  // A deadline-truncated solve exits 0 — the user asked for a time budget
  // and got the best solution it bought. A signal-truncated one exits
  // with a distinct nonzero code so scripts can tell it was interrupted.
  return signal_truncated ? kExitSignalTruncated : 0;
}

int CmdThreshold(int argc, char** argv) {
  FlagParser flags(
      "prefcover threshold: smallest set reaching a coverage target");
  flags.AddString("graph", "graph.pcg", "graph path");
  flags.AddDouble("coverage", 0.8, "coverage target in [0,1]");
  flags.AddString("variant", "auto", "independent|normalized|auto");
  flags.AddString("out", "", "optional CSV for the retained items");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;

  auto graph = ReadGraphBinaryFile(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());
  auto variant = ResolveVariant(flags.GetString("variant"), *graph);
  if (!variant.ok()) return Fail(variant.status());

  auto result = SolveCoverageThreshold(*graph, flags.GetDouble("coverage"),
                                       *variant,
                                       ThresholdAlgorithm::kGreedy);
  if (!result.ok()) return Fail(result.status());
  if (!result->reached) {
    std::printf("target unreachable: full catalog covers %.4f%%\n",
                result->solution.cover * 100.0);
    return 1;
  }
  std::printf("%zu items (%.2f%% of the catalog) cover %.4f%%\n",
              result->set_size,
              100.0 * static_cast<double>(result->set_size) /
                  static_cast<double>(graph->NumNodes()),
              result->solution.cover * 100.0);
  if (!flags.GetString("out").empty()) {
    Status st =
        WriteSolutionCsv(*graph, result->solution, flags.GetString("out"));
    if (!st.ok()) return Fail(st);
  }
  return 0;
}

int CmdExport(int argc, char** argv) {
  FlagParser flags("prefcover export: dump a .pcg graph to CSV");
  flags.AddString("graph", "graph.pcg", "graph path");
  flags.AddString("nodes", "nodes.csv", "output node CSV");
  flags.AddString("edges", "edges.csv", "output edge CSV");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;
  auto graph = ReadGraphBinaryFile(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());
  std::ofstream nodes(flags.GetString("nodes"));
  std::ofstream edges(flags.GetString("edges"));
  if (!nodes || !edges) {
    return Fail(Status::IOError("cannot open output files"));
  }
  Status st = WriteGraphCsv(*graph, &nodes, &edges);
  if (!st.ok()) return Fail(st);
  // Output that fits in the stream's buffer reaches the file only here.
  if (!nodes.flush() || !edges.flush()) {
    return Fail(Status::IOError("failed writing CSV graph"));
  }
  std::printf("wrote %s and %s\n", flags.GetString("nodes").c_str(),
              flags.GetString("edges").c_str());
  return 0;
}

int CmdServe(int argc, char** argv) {
  FlagParser flags(
      "prefcover serve: answer substitute queries over a serving index "
      "(line protocol on stdin, or a TCP socket with --port; see "
      "SERVING.md)");
  flags.AddString("index", "", "PCSIDX01 index file (from solve "
                  "--index_out); required unless --graph is given");
  flags.AddString("graph", "",
                  "solve in-process instead of loading --index "
                  "(requires --k)");
  flags.AddInt("k", 0, "items to retain for --graph");
  flags.AddString("variant", "auto", "independent|normalized|auto");
  flags.AddInt("top_m", 8, "substitutes per node for --graph");
  flags.AddInt("port", 0, "TCP port to listen on; 0 = read stdin");
  flags.AddDouble("stats_every_s", 0.0,
                  "print a live qps / p99 line to stderr at this interval "
                  "(0 = off)");
  flags.AddString("metrics_out", "",
                  "write the final metrics snapshot JSON here on clean "
                  "shutdown (same document as solve --metrics_out)");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;
  const int64_t port = flags.GetInt("port");
  if (port < 0 || port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  const int64_t top_m = flags.GetInt("top_m");
  if (top_m < 0 || top_m > kMaxU32) {
    return Fail(Status::InvalidArgument(
        "--top_m must be in [0, " + std::to_string(kMaxU32) + "]"));
  }

  std::shared_ptr<const serve::ServingIndex> index;
  if (!flags.GetString("index").empty()) {
    auto loaded = serve::ServingIndex::Load(flags.GetString("index"));
    if (!loaded.ok()) return Fail(loaded.status());
    index = std::make_shared<const serve::ServingIndex>(
        std::move(*loaded));
  } else if (!flags.GetString("graph").empty()) {
    if (flags.GetInt("k") <= 0) {
      return Fail(Status::InvalidArgument("--graph requires --k >= 1"));
    }
    auto graph = ReadGraphBinaryFile(flags.GetString("graph"));
    if (!graph.ok()) return Fail(graph.status());
    auto variant = ResolveVariant(flags.GetString("variant"), *graph);
    if (!variant.ok()) return Fail(variant.status());
    size_t k = static_cast<size_t>(flags.GetInt("k"));
    if (k > graph->NumNodes()) k = graph->NumNodes();
    GreedyOptions greedy_options;
    greedy_options.variant = *variant;
    auto solution = SolveGreedyLazy(*graph, k, greedy_options);
    if (!solution.ok()) return Fail(solution.status());
    serve::ServingIndexOptions index_options;
    index_options.top_m = static_cast<size_t>(top_m);
    auto built = serve::ServingIndex::Build(*graph, *solution,
                                            index_options);
    if (!built.ok()) return Fail(built.status());
    index = std::make_shared<const serve::ServingIndex>(
        std::move(*built));
  } else {
    return Fail(
        Status::InvalidArgument("serve needs --index or --graph"));
  }

  std::fprintf(stderr,
               "serving %zu nodes (%zu retained, %s variant, top_m=%zu)\n",
               index->NumNodes(), index->NumRetained(),
               std::string(VariantName(index->variant())).c_str(),
               index->top_m());
  serve::QueryEngine engine(std::move(index));

  // Live stats line: one background sampler drives both the ring (for the
  // final --metrics_out snapshot) and the periodic stderr report.
  std::unique_ptr<obs::MetricsSampler> sampler;
  const double stats_every_s = flags.GetDouble("stats_every_s");
  if (stats_every_s > 0.0) {
    obs::TimeseriesOptions sampler_options;
    sampler_options.interval_s = stats_every_s;
    sampler_options.on_sample = [](const obs::MetricsSample& current,
                                   const obs::MetricsSample* previous) {
      if (previous == nullptr) return;  // nothing to rate against yet
      const double qps =
          obs::CounterRatePerSecond(*previous, current, "serve.requests");
      double p99_us = 0.0;
      for (const auto& h : current.snapshot.histograms) {
        if (h.name != "serve.latency_us") continue;
        for (const auto& earlier : previous->snapshot.histograms) {
          if (earlier.name == h.name) {
            p99_us = obs::HistogramDeltaQuantile(earlier, h, 0.99);
            break;
          }
        }
        break;
      }
      std::fprintf(stderr, "[stats] requests=%llu qps=%.1f p99_us=%.0f\n",
                   static_cast<unsigned long long>(
                       current.snapshot.CounterOr("serve.requests")),
                   qps, p99_us);
    };
    sampler = std::make_unique<obs::MetricsSampler>(
        &obs::MetricsRegistry::Global(), sampler_options);
    sampler->Start();
  }
  // Snapshot written on every clean shutdown path (quit, EOF, TCP
  // shutdown verb); skipped when the process is killed, by design.
  auto export_metrics = [&flags, &sampler]() -> int {
    if (sampler != nullptr) sampler->Stop();
    const std::string& metrics_out = flags.GetString("metrics_out");
    if (metrics_out.empty()) return 0;
    auto write = [&metrics_out]() -> Status {
      PREFCOVER_FAILPOINT_STATUS("metrics.export");
      return WriteFileAtomic(
          metrics_out,
          MetricsSnapshotToJson(obs::MetricsRegistry::Global().Snapshot())
              .Dump());
    };
    Status st = write();
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
    return 0;
  };

  if (port == 0) {
    std::string line;
    bool quit = false;
    while (!quit && std::getline(std::cin, line)) {
      std::string response = serve::HandleServeLine(&engine, line, &quit);
      std::printf("%s\n", response.c_str());
      std::fflush(stdout);
    }
    return export_metrics();
  }

#if defined(__unix__)
  // A client vanishing mid-write must surface as an EPIPE write error on
  // that connection, not kill the whole server.
  serve::IgnoreSigpipe();
  auto listener = serve::ListenTcp(static_cast<uint16_t>(port));
  if (!listener.ok()) return Fail(listener.status());
  auto bound = serve::LocalPort(*listener);
  if (!bound.ok()) return Fail(bound.status());
  std::fprintf(stderr, "listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(*bound));
  // One session thread per connection: resilient clients hold their
  // connection for many requests, so a serial accept loop would let one
  // client starve the rest. Each session thread answers its own lines
  // (QueryEngine::Answer is thread-safe). AcceptClient rides out EINTR
  // and transient (ECONNABORTED-class) failures internally.
  const int listener_fd = *listener;
  std::atomic<bool> stop{false};
  std::atomic<int> active_sessions{0};
  for (;;) {
    auto fd = serve::AcceptClient(listener_fd);
    if (!fd.ok()) {
      // A `shutdown` session unblocks this accept by shutting the
      // listener down; anything else is a real error.
      if (stop.load(std::memory_order_relaxed)) break;
      close(listener_fd);
      return Fail(fd.status());
    }
    active_sessions.fetch_add(1, std::memory_order_relaxed);
    std::thread([&engine, &stop, &active_sessions, listener_fd,
                 conn = *fd] {
      if (!serve::ServeConnectionLoop(&engine, conn)) {
        stop.store(true, std::memory_order_relaxed);
        ::shutdown(listener_fd, SHUT_RDWR);
      }
      active_sessions.fetch_sub(1, std::memory_order_relaxed);
    }).detach();
    if (stop.load(std::memory_order_relaxed)) break;
  }
  // Let in-flight sessions finish before tearing the engine down under
  // them.
  while (active_sessions.load(std::memory_order_relaxed) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  close(listener_fd);
  return export_metrics();
#else
  return Fail(Status::Unimplemented("--port requires a POSIX host"));
#endif
}

#if defined(__unix__) || defined(__APPLE__)

int CmdDistWorker(int argc, char** argv) {
  FlagParser flags(
      "prefcover dist-worker: candidate-shard worker for the distributed "
      "greedy solve (protocol in DISTRIBUTED.md). Prints "
      "DIST_WORKER_PORT=<port> once listening; runs until a coordinator "
      "sends `shutdown`");
  flags.AddString("graph", "graph.pcg",
                  "graph path (every worker loads the full graph; the "
                  "coordinator's `init` assigns the candidate shard)");
  flags.AddInt("port", 0, "TCP port to listen on (0 = ephemeral)");
  if (int rc = ParseOrExit(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : 1;
  const int64_t port = flags.GetInt("port");
  if (port < 0 || port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  auto graph = ReadGraphBinaryFile(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());
  Status st = dist::RunDistWorkerServer(*graph, static_cast<uint16_t>(port));
  if (!st.ok()) return Fail(st);
  return 0;
}

#endif  // __unix__ || __APPLE__

int CmdVersion() {
  EnvCapture env = EnvCapture::Capture();
  std::printf("prefcover %s\n", BuildVersionString().c_str());
  std::printf("git: %s\nbuild: %s, %s\n", env.git_sha.c_str(),
              env.build_type.c_str(), env.compiler.c_str());
  return 0;
}

void PrintUsage() {
  std::fputs(
      "usage: prefcover <command> [flags]\n\n"
      "commands:\n"
      "  generate    synthesize a profile-shaped clickstream CSV\n"
      "  construct   clickstream CSV -> preference graph (.pcg)\n"
      "  stats       describe a graph file\n"
      "  solve       select k items maximizing the cover\n"
      "  threshold   smallest set reaching a coverage target\n"
      "  export      dump a .pcg graph to nodes/edges CSV\n"
      "  serve       answer substitute queries over a serving index\n"
      "  dist-worker candidate-shard worker for the distributed solve\n"
      "  version     print the build version\n\n"
      "run `prefcover <command> --help` for command flags\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  std::string command = argv[1];
  // Shift argv so each command parses its own flags from argv[1:].
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (command == "generate") return CmdGenerate(sub_argc, sub_argv);
  if (command == "construct") return CmdConstruct(sub_argc, sub_argv);
  if (command == "stats") return CmdStats(sub_argc, sub_argv);
  if (command == "solve") return CmdSolve(sub_argc, sub_argv);
  if (command == "threshold") return CmdThreshold(sub_argc, sub_argv);
  if (command == "export") return CmdExport(sub_argc, sub_argv);
  if (command == "serve") return CmdServe(sub_argc, sub_argv);
#if defined(__unix__) || defined(__APPLE__)
  if (command == "dist-worker") return CmdDistWorker(sub_argc, sub_argv);
#endif
  if (command == "version" || command == "--version") return CmdVersion();
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  PrintUsage();
  return 1;
}
