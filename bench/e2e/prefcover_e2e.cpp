// prefcover_e2e — the end-to-end benchmark of the planner and serving
// paths.
//
// One process runs one workload with inputs made from --seed:
//
//   set-up   synthesize the clickstream and the catalogue graph, write
//            them, solve and write the serving index, start 4 loopback
//            dist workers and a TCP query server. Done once before the
//            rounds and again as a batch stage; the median is setup_s.
//   rounds   until --seconds have passed, a batch part whose stages each
//            repeat until they have run 20 ms (at least once)
//              plan chain     the calls of `construct` (auto variant) then
//                             `solve --index_out` then `serve --index`
//                             start-up, from the clickstream CSV;
//              stream chain   the calls of `solve --clicks
//                             --variant=<the variant construct chose>
//                             --index_out`;
//              each greedy execution on the in-memory catalogue graph
//                             (lazy, lazy-parallel on 4 threads, the
//                             parallel scan at k=32, the budgeted solve,
//                             the distributed solve over the 4 workers);
//              solve job      the calls of `solve --graph --index_out`
//                             on the catalogue graph file;
//              set-up         a second deployment, set up in its own
//                             directory beside the live one and torn
//                             down;
//            then a serve slice, half the round, of short points in
//            turn: 0.2 s of open-loop traffic at 4,000 and at 8,000
//            queries/s and a 0.1 s closed-loop capacity probe, over 3
//            query connections and 1 control connection, from this
//            thread.
//
// Interleaving spreads every metric's samples over the whole run; each
// call of a batch stage is one sample, each serve point one sample of
// its percentiles, and every value is the median of its samples (the 10th
// percentile for the batch stages' end-to-end timings). Each
// stage visit and each serve point is a measurement window: when the
// hypervisor took CPU time from this guest during it (steal in
// /proc/stat), its samples measure the host's other guests, and they are
// used only as far as a metric lacks quieter windows. Every call into a
// module is one of its public functions, timed from outside, so any
// module can be rewritten without editing this file.
//
// Usage: prefcover_e2e --workload=NAME --seed=N --seconds=S
//                      --work_dir=DIR --result=FILE
//                      [--trace --trace_out=FILE] [--smoke]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/env_capture.h"
#include "bench/json.h"
#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "clickstream/variant_selection.h"
#include "core/checkpoint.h"
#include "core/constrained_solver.h"
#include "core/greedy_solver.h"
#include "dist/distributed_solver.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "serve/serving_index.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve_load.h"
#include "span_log.h"
#include "synth/dataset_profiles.h"
#include "util/flags.h"
#include "util/fs.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace prefcover;
using namespace prefcover::e2e;

namespace {

// --- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  /// Dataset profile of the clickstream and the catalogue graph; the
  /// catalogue solves use its natural variant.
  DatasetProfile profile;
  /// Item popularity of the query traffic; 0 = uniform.
  double zipf_s;
  /// The control connection reloads the index every 2 s (else `stats`).
  bool reload;
};

// Two workloads, each run long enough to span several of the host's fast
// and slow stretches (README.md). Between them the clickstream and the
// catalogue take the independent and the normalized variant, and the
// response cache is mostly hit (Zipf traffic, no reloads) or mostly
// missed (uniform traffic, each reload starts an empty cache).
constexpr Workload kWorkloads[] = {
    {"pe-zipf", DatasetProfile::kPE, 1.0, false},
    {"pm-uniform-reload", DatasetProfile::kPM, 0.0, true},
};

// Input sizes. On a shared 4-vCPU VM, memory latency beyond a few MB
// doubled between the host's quiet and busy stretches while in-cache work
// did not slow, so the inputs are sized to stay near the per-core cache
// and the times repeat (README.md).
/// Clickstream scale the plan chains read (about 3 MB of CSV).
constexpr double kClicksScale = 0.002;
/// Catalogue graph the solves and the server use, and the items the
/// catalogue solves retain (1% of the catalogue).
constexpr uint32_t kCatalogueNodes = 20'000;
constexpr size_t kCatalogueK = 200;

/// Share of each round spent in its batch part; the serve slice takes the
/// rest.
constexpr double kBatchShare = 0.5;
// Measurement windows are short, so that a burst of CPU steal spoils few
// of them: each visit of a batch stage repeats it until this many seconds
// have passed, and a serve slice is a sequence of short points.
constexpr double kMinVisitSeconds = 0.02;
constexpr double kServePointSeconds = 0.2;
constexpr double kClosedLoopSeconds = 0.1;
constexpr size_t kMinRounds = 2;
constexpr size_t kDistWorkers = 4;
constexpr size_t kPoolThreads = 4;
constexpr size_t kScanK = 32;
/// A measurement window is disturbed when more CPU time than this was
/// stolen during it: one 10 ms tick is tolerated, since ticks are the
/// counter's resolution; two or more can stall a thread long enough to
/// move a serve point's p95 several-fold.
constexpr double kMaxStolenSeconds = 0.01;
/// A metric uses at least this many windows, the least stolen first,
/// even when they were disturbed.
constexpr size_t kMinWindows = 5;
constexpr double kControlPeriodS = 2.0;
constexpr size_t kClosedLoopDepth = 8;
constexpr size_t kRequestLines = 1 << 18;

struct RatePoint {
  const char* suffix;
  double qps;
};
constexpr RatePoint kRatePoints[] = {{"4k", 4000.0}, {"8k", 8000.0}};

// --- metric catalogue --------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  /// The quantile of the samples reported as the value.
  double quantile = 0.5;
};

/// Batch timings report the 10th percentile of their calls. On a shared
/// VM other tenants slow a varying share of the calls, which moves a
/// median between runs; the fastest calls are the program's own cost
/// with the least interference, and a change to the program moves them
/// as much.
constexpr double kBatchQuantile = 0.1;

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"plan_s", "s", kBatchQuantile},
    {"plan_stream_s", "s", kBatchQuantile},
    {"solve_job_s", "s", kBatchQuantile},
    {"solve_lazy_s", "s", kBatchQuantile},
    {"solve_lazy_parallel_s", "s", kBatchQuantile},
    {"solve_parallel_s", "s", kBatchQuantile},
    {"solve_constrained_s", "s", kBatchQuantile},
    {"solve_dist4_s", "s", kBatchQuantile},
    {"serve_p50_us_4k", "us"},
    {"serve_p95_us_4k", "us"},
    {"serve_p50_us_8k", "us"},
    {"serve_p95_us_8k", "us"},
    {"serve_capacity_qps", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr const char* kExecutions[] = {"lazy", "lazy_parallel", "parallel",
                                       "greedy", "constrained"};
constexpr const char* kLazyExecutions[] = {"lazy", "lazy_parallel",
                                           "constrained"};
constexpr const char* kLayers[] = {"setup", "clickstream", "graph",
                                   "core",  "dist",        "serve"};

std::vector<MetricDef> PerLayerCatalogue() {
  std::vector<MetricDef> defs = {
      {"clickstream.read_s", "s"},
      {"clickstream.variant_s", "s"},
      {"clickstream.build_s", "s"},
      {"clickstream.stream_build_s", "s"},
      {"clickstream.mb_per_s", "MB/s"},
      {"graph.write_s", "s"},
      {"graph.read_s", "s"},
      {"graph.read_mb_per_s", "MB/s"},
      {"graph.file_mb", "MB"},
  };
  for (const char* exec : kExecutions) {
    const std::string prefix = std::string("core.") + exec + ".";
    defs.push_back({prefix + "gain_evals", "count"});
    defs.push_back({prefix + "cpu_s", "s"});
    defs.push_back({prefix + "busy_ratio", "ratio"});
  }
  for (const char* exec : kLazyExecutions) {
    const std::string prefix = std::string("core.") + exec + ".";
    defs.push_back({prefix + "heap_pops", "count"});
    defs.push_back({prefix + "stale_ratio", "ratio"});
  }
  for (const char* layer : kLayers) {
    defs.push_back({std::string("layer.") + layer + ".self_s", "s"});
  }
  const MetricDef rest[] = {
      {"core.greedy_s", "s"},
      {"dist.seat_s", "s"},
      {"dist.rounds_s", "s"},
      {"dist.round_us.p50", "us"},
      {"dist.round_us.p99", "us"},
      {"dist.bytes_sent", "count"},
      {"dist.bytes_received", "count"},
      {"dist.rebalances", "count"},
      {"client.retries", "count"},
      {"serve.index_build_s", "s"},
      {"serve.index_save_s", "s"},
      {"serve.index_load_s", "s"},
      {"serve.index_mb", "MB"},
      {"serve.engine_p50_us_4k", "us"},
      {"serve.engine_p50_us_8k", "us"},
      {"serve.wire_p50_us_4k", "us"},
      {"serve.wire_p50_us_8k", "us"},
      {"serve.batch_size_mean_4k", "count"},
      {"serve.batch_size_mean_8k", "count"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.shed", "count"},
      {"serve.reload_ms", "ms"},
      {"serve.p99_us_4k", "us"},
      {"serve.p99_us_8k", "us"},
      {"loadgen.late_p99_us", "us"},
      {"proc.cpu_s", "s"},
      {"proc.ctx_switches_vol", "count"},
      {"proc.ctx_switches_invol", "count"},
      {"setup.synth_s", "s"},
      {"setup.write_s", "s"},
      {"setup.start_s", "s"},
      {"trace.chain_coverage", "ratio"},
      {"host.probe_ms", "ms"},
      {"host.disturbed_share", "ratio"},
  };
  defs.insert(defs.end(), std::begin(rest), std::end(rest));
  return defs;
}

// --- small helpers -----------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// CPU seconds, summed over this guest's CPUs, during which the
/// hypervisor ran something else while a CPU was ready ("steal" in
/// /proc/stat). 0 where the counter cannot be read.
double StolenSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) /
                        static_cast<double>(::sysconf(_SC_CLK_TCK))
                  : 0.0;
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / 1e6;
}

uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 1469598103934665603ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t SolutionDigest(const Solution& s) {
  const uint64_t h = Fnv1a(s.items.data(), s.items.size() * sizeof(NodeId));
  return Fnv1a(s.cover_after_prefix.data(),
               s.cover_after_prefix.size() * sizeof(double), h);
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// First `n` selections (items and prefix covers) of `a` and `b` agree
/// byte for byte.
bool SamePrefix(const Solution& a, const Solution& b, size_t n) {
  if (a.items.size() < n || b.items.size() < n ||
      a.cover_after_prefix.size() < n || b.cover_after_prefix.size() < n) {
    return false;
  }
  return std::memcmp(a.items.data(), b.items.data(), n * sizeof(NodeId)) ==
             0 &&
         std::memcmp(a.cover_after_prefix.data(), b.cover_after_prefix.data(),
                     n * sizeof(double)) == 0;
}

bool SameSolution(const Solution& a, const Solution& b) {
  return a.items.size() == b.items.size() &&
         SamePrefix(a, b, a.items.size());
}

uint64_t GlobalCounter(const char* name) {
  return obs::MetricsRegistry::Global().Snapshot().CounterOr(name);
}

/// Named output checks with pass/fail counts.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail) {
    auto& [passed, failed] = counts_[name];
    if (ok) {
      ++passed;
    } else {
      ++failed;
      std::fprintf(stderr, "check failed: %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  bool all_ok() const {
    for (const auto& [name, c] : counts_) {
      if (c.second != 0) return false;
    }
    return true;
  }
  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    for (const auto& [name, c] : counts_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("passed", JsonValue::Uint(c.first));
      entry.Set("failed", JsonValue::Uint(c.second));
      out.Set(name, std::move(entry));
    }
    return out;
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> counts_;
};

// --- dist workers ----------------------------------------------------------

/// One in-process dist worker: a loopback listener with a serial accept
/// loop on its own thread — the `prefcover dist-worker` topology without
/// process spawning.
class WorkerServer {
 public:
  explicit WorkerServer(const PreferenceGraph* graph) : worker_(graph) {}

  ~WorkerServer() {
    if (port_ != 0) {
      auto fd = serve::ConnectTcp("127.0.0.1", port_, 1000);
      if (fd.ok()) {
        static const char kShutdown[] = "shutdown\n";
        (void)serve::WriteFully(*fd, kShutdown, sizeof(kShutdown) - 1);
        char buffer[64];
        (void)serve::ReadSome(*fd, buffer, sizeof(buffer));
        ::close(*fd);
      }
    }
    if (thread_.joinable()) thread_.join();
    if (listener_ >= 0) ::close(listener_);
  }

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  Status Start() {
    PREFCOVER_ASSIGN_OR_RETURN(listener_, serve::ListenTcp(0));
    PREFCOVER_ASSIGN_OR_RETURN(port_, serve::LocalPort(listener_));
    thread_ = std::thread([this] {
      bool keep_serving = true;
      while (keep_serving) {
        auto client = serve::AcceptClient(listener_);
        if (!client.ok()) break;
        keep_serving = serve::ServeLineSessionLoop(
            *client, [this](const std::string& line, bool* stop_session,
                            bool* stop_server) {
              return worker_.HandleLine(line, stop_session, stop_server);
            });
      }
    });
    return Status::OK();
  }

  uint16_t port() const { return port_; }

 private:
  dist::DistWorker worker_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// A fixed memory-latency kernel that runs no repository code: a walk
/// along one random cycle through 16 MB. No change to the system moves
/// it; the host's state (cache and memory contention from other tenants,
/// CPU steal) does, so a run measured on a slowed host shows here.
class HostProbe {
 public:
  HostProbe() : next_(kEntries) {
    // Sattolo's algorithm: one cycle through every entry.
    std::iota(next_.begin(), next_.end(), 0u);
    Rng rng(0x9E0B5ULL);
    for (uint32_t i = kEntries - 1; i > 0; --i) {
      std::swap(next_[i], next_[static_cast<size_t>(rng.NextBounded(i))]);
    }
  }

  double RunMs() {
    const int64_t start = NowNs();
    uint32_t at = 0;
    for (uint32_t step = 0; step < kSteps; ++step) at = next_[at];
    last_ = at;
    return static_cast<double>(NowNs() - start) / 1e6;
  }

 private:
  static constexpr uint32_t kEntries = 1u << 22;
  static constexpr uint32_t kSteps = 1u << 17;
  std::vector<uint32_t> next_;
  uint32_t last_ = 0;  // keeps the walk observable
};

// --- one run ---------------------------------------------------------------

struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
};

/// Everything set-up produces. Members are destroyed in reverse order:
/// the load generator disconnects before the server stops, and the
/// workers stop before the graph they read goes away. Held by unique_ptr
/// and never assigned, so that order always holds.
struct Deployment {
  std::string csv_path;
  std::string pcg_path;
  std::string index_paths[2];
  std::unique_ptr<PreferenceGraph> graph;
  /// The catalogue solves' options: the profile's natural variant.
  GreedyOptions options;
  ConstraintSpec budget_spec;
  /// The benchmark's own copy of the served index, for the answer checks.
  std::unique_ptr<serve::ServingIndex> reference;
  std::unique_ptr<ThreadPool> pool;
  std::vector<std::unique_ptr<WorkerServer>> workers;
  std::unique_ptr<ThreadPool> fan_out;
  dist::DistSolveOptions dist_options;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<LoadGenerator> load;
};

class Run {
 public:
  explicit Run(Config config) : c_(std::move(config)), log_(c_.trace) {}

  Status SetUp();
  /// Alternates batch rounds and serve slices until --seconds have
  /// passed, so every metric samples the whole run.
  Status Measure();
  /// Tears the deployment down and assembles the result document.
  JsonValue Finish();
  const SpanLog& log() const { return log_; }

 private:
  /// Sets up `d` with its files in `dir`, adding one setup_s sample.
  Status SetUpOnce(Deployment* d, const std::string& dir);
  // Batch stages. The first call of a stage fixes the reference output
  // that later calls must repeat.
  /// Sets up a second deployment and tears it down.
  Status SetUpAgain();
  Status PlanChain();
  Status StreamChain();
  Status SolveJob();
  Status Lazy();
  Status LazyParallel();
  Status Parallel();
  Status Constrained();
  Status Distributed();
  /// Every batch stage in turn, each repeated until it has run
  /// kMinVisitSeconds (at least once); no stage starts after
  /// `deadline_ns`.
  Status BatchRound(int64_t deadline_ns);
  /// Open loop at each rate point, then the capacity probe.
  Status ServeSlice(double seconds);
  Status ServePoint(const RatePoint& point, double seconds);

  /// Calls `solve` once, recording its wall time under `wall_metric` and
  /// its CPU time and work counts under core.<name>.
  Result<Solution> TimeExecution(
      const std::string& name, const std::string& wall_metric,
      size_t threads, const std::function<Result<Solution>()>& solve);

  /// Runs `measure` as one measurement window, recording the CPU time
  /// stolen meanwhile beside the samples it adds.
  Status Window(const std::function<Status()>& measure);
  /// Moves the windows' samples into samples_: per metric, every
  /// undisturbed window, and at least kMinWindows windows, the least
  /// stolen first. Returns the share of windows that were disturbed.
  double SelectWindows();

  void Add(const std::string& name, double value) {
    (in_window_ ? windows_.back().samples : samples_)[name].push_back(value);
  }

  struct WindowSamples {
    double stolen_s = 0.0;
    std::map<std::string, std::vector<double>> samples;
  };

  Config c_;
  SpanLog log_;
  HostProbe probe_;
  std::unique_ptr<Deployment> d_;
  /// Samples per metric name; each is reported as its MetricDef::quantile.
  std::map<std::string, std::vector<double>> samples_;
  std::vector<WindowSamples> windows_;
  bool in_window_ = false;
  Checks checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::string> digests_;
  /// The first plan chain's variant, graph digest and solution, which the
  /// stream chain and later plan chains must repeat.
  Variant plan_variant_ = Variant::kIndependent;
  std::optional<uint64_t> plan_digest_;
  std::unique_ptr<Solution> plan_reference_;
  /// The first lazy and budgeted solutions of the catalogue graph, which
  /// later calls and the other executions must repeat.
  std::unique_ptr<Solution> lazy_reference_;
  std::optional<uint64_t> constrained_digest_;
  uint64_t shed_ = 0;
  double hits_ = 0.0;
  double misses_ = 0.0;
};

Status Run::SetUpOnce(Deployment* d, const std::string& dir) {
  d->csv_path = dir + "/clicks.csv";
  d->pcg_path = dir + "/catalogue.pcg";
  d->index_paths[0] = dir + "/served_a.idx";
  d->index_paths[1] = dir + "/served_b.idx";
  double synth = 0.0, write = 0.0, start = 0.0;
  Timed whole(&log_, "setup", "setup");
  const DatasetProfile profile = c_.workload->profile;
  {
    Timed t(&log_, "GenerateProfileClickstream", "setup");
    auto clicks = GenerateProfileClickstream(profile, kClicksScale, c_.seed);
    synth += t.Stop();
    if (!clicks.ok()) return clicks.status();
    Timed w(&log_, "WriteClickstreamCsvFile", "setup");
    PREFCOVER_RETURN_NOT_OK(WriteClickstreamCsvFile(*clicks, d->csv_path));
    write += w.Stop();
  }
  {
    Timed t(&log_, "GenerateProfileGraphWithNodes", "setup");
    auto graph =
        GenerateProfileGraphWithNodes(profile, kCatalogueNodes, c_.seed);
    if (!graph.ok()) return graph.status();
    d->graph = std::make_unique<PreferenceGraph>(std::move(*graph));
    d->options.variant = GetProfileSpec(profile).natural_variant;
    // Budgeted solve: seeded costs U[0.5, 1.5], budget k.
    Rng rng(c_.seed ^ 0xC057ULL);
    d->budget_spec.costs.resize(d->graph->NumNodes());
    for (double& cost : d->budget_spec.costs) cost = 0.5 + rng.NextDouble();
    d->budget_spec.budget = static_cast<double>(kCatalogueK);
    synth += t.Stop();
    Timed w(&log_, "WriteGraphBinaryFile", "setup");
    PREFCOVER_RETURN_NOT_OK(WriteGraphBinaryFile(*d->graph, d->pcg_path));
    write += w.Stop();
  }
  {
    // The served index, written twice so reloads can alternate between two
    // byte-identical files.
    Timed t(&log_, "index", "setup");
    auto solution = SolveGreedyLazy(*d->graph, kCatalogueK, d->options);
    if (!solution.ok()) return solution.status();
    auto index = serve::ServingIndex::Build(*d->graph, *solution);
    if (!index.ok()) return index.status();
    for (const std::string& path : d->index_paths) {
      PREFCOVER_RETURN_NOT_OK(index->Save(path));
    }
    d->reference = std::make_unique<serve::ServingIndex>(std::move(*index));
    write += t.Stop();
  }
  {
    Timed t(&log_, "start", "setup");
    d->pool = std::make_unique<ThreadPool>(kPoolThreads);
    d->dist_options.client.request_timeout_ms = 60'000;
    for (size_t i = 0; i < kDistWorkers; ++i) {
      d->workers.push_back(std::make_unique<WorkerServer>(d->graph.get()));
      PREFCOVER_RETURN_NOT_OK(d->workers.back()->Start());
      dist::DistWorkerEndpoint endpoint;
      endpoint.port = d->workers.back()->port();
      d->dist_options.workers.push_back(endpoint);
    }
    d->fan_out = std::make_unique<ThreadPool>(kDistWorkers);
    d->dist_options.pool = d->fan_out.get();

    auto served = serve::ServingIndex::Load(d->index_paths[0]);
    if (!served.ok()) return served.status();
    d->server = std::make_unique<QueryServer>();
    PREFCOVER_RETURN_NOT_OK(d->server->Start(
        std::make_shared<const serve::ServingIndex>(std::move(*served))));
    d->load = std::make_unique<LoadGenerator>(
        d->reference.get(),
        MakeRequestLines(*d->reference, c_.workload->zipf_s, kRequestLines,
                         c_.seed),
        c_.seed, &log_);
    PREFCOVER_RETURN_NOT_OK(d->load->Connect(d->server->port()));
    start += t.Stop();
  }
  Add("setup_s", whole.Stop());
  Add("setup.synth_s", synth);
  Add("setup.write_s", write);
  Add("setup.start_s", start);
  return Status::OK();
}

Status Run::SetUp() {
  d_ = std::make_unique<Deployment>();
  return SetUpOnce(d_.get(), c_.work_dir);
}

Status Run::SetUpAgain() {
  // Set-up time follows the host's state like every other timing, so it
  // is sampled across the run rather than only at its start.
  const std::string dir = c_.work_dir + "/again";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  auto d = std::make_unique<Deployment>();
  return SetUpOnce(d.get(), dir);
}

Result<Solution> Run::TimeExecution(
    const std::string& name, const std::string& wall_metric, size_t threads,
    const std::function<Result<Solution>()>& solve) {
  const std::string prefix = "core." + name + ".";
  const double cpu_before = CpuSeconds();
  Timed t(&log_, name, "core");
  auto solution = solve();
  const double wall = t.Stop();
  const double cpu = CpuSeconds() - cpu_before;
  ++attempted_;
  if (!solution.ok()) return solution.status();
  Add(wall_metric, wall);
  Add(prefix + "cpu_s", cpu);
  Add(prefix + "busy_ratio", cpu / (static_cast<double>(threads) * wall));
  Add(prefix + "gain_evals",
      static_cast<double>(solution->stats.gain_evaluations));
  Add(prefix + "heap_pops", static_cast<double>(solution->stats.heap_pops));
  Add(prefix + "stale_ratio", solution->stats.StaleRatio());
  return solution;
}

Status Run::PlanChain() {
  const std::string pcg = c_.work_dir + "/plan.pcg";
  const std::string idx = c_.work_dir + "/plan.idx";
  Timed chain(&log_, "plan", "chain");
  Timed read(&log_, "ReadClickstreamCsvFile", "clickstream");
  auto clicks = ReadClickstreamCsvFile(d_->csv_path);
  const double read_s = read.Stop();
  Add("clickstream.read_s", read_s);
  if (!clicks.ok()) return clicks.status();
  Timed variant(&log_, "RecommendVariant", "clickstream");
  const VariantRecommendation recommendation = RecommendVariant(*clicks);
  Add("clickstream.variant_s", variant.Stop());
  GraphConstructionOptions construction;
  construction.variant = recommendation.variant;
  Timed build(&log_, "BuildPreferenceGraph", "clickstream");
  auto graph = BuildPreferenceGraph(*clicks, construction);
  Add("clickstream.build_s", build.Stop());
  if (!graph.ok()) return graph.status();
  Timed write(&log_, "WriteGraphBinaryFile", "graph");
  PREFCOVER_RETURN_NOT_OK(WriteGraphBinaryFile(*graph, pcg));
  Add("graph.write_s", write.Stop());
  Timed reread(&log_, "ReadGraphBinaryFile", "graph");
  auto loaded_graph = ReadGraphBinaryFile(pcg);
  reread.Stop();
  if (!loaded_graph.ok()) return loaded_graph.status();
  GreedyOptions options;
  options.variant = recommendation.variant;
  const size_t k = std::max<size_t>(1, loaded_graph->NumNodes() / 100);
  Timed solve(&log_, "SolveGreedyLazy", "core");
  auto solution = SolveGreedyLazy(*loaded_graph, k, options);
  solve.Stop();
  if (!solution.ok()) return solution.status();
  Timed index_build(&log_, "ServingIndex::Build", "serve");
  auto index = serve::ServingIndex::Build(*loaded_graph, *solution);
  index_build.Stop();
  if (!index.ok()) return index.status();
  Timed save(&log_, "ServingIndex::Save", "serve");
  PREFCOVER_RETURN_NOT_OK(index->Save(idx));
  save.Stop();
  Timed load(&log_, "ServingIndex::Load", "serve");
  auto loaded = serve::ServingIndex::Load(idx);
  Add("serve.index_load_s", load.Stop());
  if (!loaded.ok()) return loaded.status();
  Add("plan_s", chain.Stop());
  ++attempted_;

  Add("clickstream.mb_per_s", FileMb(d_->csv_path) / read_s);
  checks_.Expect(loaded->Serialize() == index->Serialize(),
                 "plan.index_round_trip", "loaded index differs from built");
  const uint64_t digest = GraphDigest(*graph);
  if (plan_reference_ == nullptr) {
    plan_variant_ = recommendation.variant;
    plan_digest_ = digest;
    plan_reference_ = std::make_unique<Solution>(*solution);
    digests_["plan_graph"] = Hex(digest);
    digests_["plan_solution"] = Hex(SolutionDigest(*solution));
  }
  checks_.Expect(recommendation.variant == plan_variant_ &&
                     digest == *plan_digest_ &&
                     SameSolution(*solution, *plan_reference_),
                 "plan.repeatable", "plan chain changed between calls");
  return Status::OK();
}

Status Run::StreamChain() {
  const std::string idx = c_.work_dir + "/stream.idx";
  Timed chain(&log_, "plan_stream", "chain");
  GraphConstructionOptions construction;
  construction.variant = plan_variant_;
  Timed build(&log_, "BuildPreferenceGraphStreamingFile", "clickstream");
  auto graph = BuildPreferenceGraphStreamingFile(d_->csv_path, construction);
  Add("clickstream.stream_build_s", build.Stop());
  if (!graph.ok()) return graph.status();
  const size_t k = std::max<size_t>(1, graph->NumNodes() / 100);
  GreedyOptions options;
  options.variant = plan_variant_;
  Timed solve(&log_, "SolveGreedyLazy", "core");
  auto solution = SolveGreedyLazy(*graph, k, options);
  solve.Stop();
  if (!solution.ok()) return solution.status();
  Timed index_build(&log_, "ServingIndex::Build", "serve");
  auto index = serve::ServingIndex::Build(*graph, *solution);
  index_build.Stop();
  if (!index.ok()) return index.status();
  Timed save(&log_, "ServingIndex::Save", "serve");
  PREFCOVER_RETURN_NOT_OK(index->Save(idx));
  save.Stop();
  Timed load(&log_, "ServingIndex::Load", "serve");
  auto loaded = serve::ServingIndex::Load(idx);
  load.Stop();
  if (!loaded.ok()) return loaded.status();
  Add("plan_stream_s", chain.Stop());
  ++attempted_;

  checks_.Expect(GraphDigest(*graph) == *plan_digest_,
                 "plan.stream_graph_digest",
                 "streaming and in-memory graphs differ");
  checks_.Expect(SameSolution(*solution, *plan_reference_),
                 "plan.stream_solution", "the two chains solved differently");
  checks_.Expect(loaded->Serialize() == index->Serialize(),
                 "plan.stream_index_round_trip",
                 "loaded index differs from built");
  return Status::OK();
}

Status Run::SolveJob() {
  const std::string idx = c_.work_dir + "/job.idx";
  Timed chain(&log_, "solve_job", "chain");
  Timed read(&log_, "ReadGraphBinaryFile", "graph");
  auto graph = ReadGraphBinaryFile(d_->pcg_path);
  const double read_s = read.Stop();
  Add("graph.read_s", read_s);
  if (!graph.ok()) return graph.status();
  Timed solve(&log_, "SolveGreedyLazy", "core");
  auto solution = SolveGreedyLazy(*graph, kCatalogueK, d_->options);
  solve.Stop();
  if (!solution.ok()) return solution.status();
  Timed index_build(&log_, "ServingIndex::Build", "serve");
  auto index = serve::ServingIndex::Build(*graph, *solution);
  Add("serve.index_build_s", index_build.Stop());
  if (!index.ok()) return index.status();
  Timed save(&log_, "ServingIndex::Save", "serve");
  PREFCOVER_RETURN_NOT_OK(index->Save(idx));
  Add("serve.index_save_s", save.Stop());
  Add("solve_job_s", chain.Stop());
  ++attempted_;

  const double file_mb = FileMb(d_->pcg_path);
  Add("graph.file_mb", file_mb);
  Add("graph.read_mb_per_s", file_mb / read_s);
  Add("serve.index_mb", FileMb(idx));
  checks_.Expect(SameSolution(*solution, *lazy_reference_),
                 "solve.job_matches_in_memory",
                 "solve from the graph file differs from the in-memory one");
  digests_["job_solution"] = Hex(SolutionDigest(*solution));
  return Status::OK();
}

Status Run::Lazy() {
  PREFCOVER_ASSIGN_OR_RETURN(
      Solution lazy, TimeExecution("lazy", "solve_lazy_s", 1, [&] {
        return SolveGreedyLazy(*d_->graph, kCatalogueK, d_->options);
      }));
  if (lazy_reference_ == nullptr) {
    lazy_reference_ = std::make_unique<Solution>(lazy);
    digests_["lazy"] = Hex(SolutionDigest(lazy));
  }
  checks_.Expect(SameSolution(lazy, *lazy_reference_), "solve.lazy_repeatable",
                 "lazy solve changed between calls");
  return Status::OK();
}

Status Run::LazyParallel() {
  PREFCOVER_ASSIGN_OR_RETURN(
      Solution lazy_parallel,
      TimeExecution("lazy_parallel", "solve_lazy_parallel_s", kPoolThreads,
                    [&] {
                      return SolveGreedyLazyParallel(
                          *d_->graph, kCatalogueK, d_->pool.get(),
                          d_->options);
                    }));
  checks_.Expect(SameSolution(lazy_parallel, *lazy_reference_),
                 "solve.lazy_parallel", "lazy-parallel differs from lazy");
  return Status::OK();
}

Status Run::Parallel() {
  PREFCOVER_ASSIGN_OR_RETURN(
      Solution parallel,
      TimeExecution("parallel", "solve_parallel_s", kPoolThreads, [&] {
        return SolveGreedyParallel(*d_->graph, kScanK, d_->pool.get(),
                                   d_->options);
      }));
  checks_.Expect(SamePrefix(parallel, *lazy_reference_, kScanK) &&
                     parallel.items.size() == kScanK,
                 "solve.parallel_prefix",
                 "parallel scan differs from lazy's prefix");
  return Status::OK();
}

Status Run::Constrained() {
  double total_cost = 0.0;
  PREFCOVER_ASSIGN_OR_RETURN(
      Solution constrained,
      TimeExecution("constrained", "solve_constrained_s", 1,
                    [&]() -> Result<Solution> {
                      ConstrainedCoverOptions options;
                      options.variant = d_->options.variant;
                      auto out = SolveConstrainedCover(
                          *d_->graph, d_->budget_spec, options);
                      if (!out.ok()) return out.status();
                      total_cost = out->total_cost;
                      return std::move(out->solution);
                    }));
  checks_.Expect(total_cost <= d_->budget_spec.budget,
                 "solve.constrained_budget", "budget exceeded");
  const uint64_t constrained_digest = SolutionDigest(constrained);
  if (!constrained_digest_) {
    constrained_digest_ = constrained_digest;
    digests_["constrained"] = Hex(constrained_digest);
  }
  checks_.Expect(constrained_digest == *constrained_digest_,
                 "solve.constrained_repeatable",
                 "budgeted solve changed between calls");
  return Status::OK();
}

Status Run::Distributed() {
  const PreferenceGraph& graph = *d_->graph;
  // Seating runs from the call until the first round starts; on_round
  // marks every round boundary.
  std::vector<int64_t> rounds;
  d_->dist_options.on_round = [&rounds](size_t) { rounds.push_back(NowNs()); };
  const uint64_t sent_before = GlobalCounter(dist::dist_metric::kBytesSent);
  const uint64_t received_before =
      GlobalCounter(dist::dist_metric::kBytesReceived);
  const int64_t start = NowNs();
  Timed t(&log_, "SolveGreedyDistributed", "dist");
  auto dist4 = dist::SolveGreedyDistributed(graph, kCatalogueK, d_->options,
                                            d_->dist_options);
  const int64_t end = NowNs();
  if (!rounds.empty()) {
    log_.AddClosed("seat", "dist", start, rounds.front());
    log_.AddClosed("rounds", "dist", rounds.front(), end);
  }
  Add("solve_dist4_s", t.Stop());
  ++attempted_;
  d_->dist_options.on_round = nullptr;
  if (!dist4.ok()) return dist4.status();
  if (!rounds.empty()) {
    Add("dist.seat_s", static_cast<double>(rounds.front() - start) / 1e9);
    Add("dist.rounds_s", static_cast<double>(end - rounds.front()) / 1e9);
    for (size_t i = 1; i < rounds.size(); ++i) {
      Add("dist.round_us", static_cast<double>(rounds[i] - rounds[i - 1]) /
                               1e3);
    }
  }
  Add("dist.bytes_sent",
      static_cast<double>(GlobalCounter(dist::dist_metric::kBytesSent) -
                          sent_before));
  Add("dist.bytes_received",
      static_cast<double>(GlobalCounter(dist::dist_metric::kBytesReceived) -
                          received_before));
  checks_.Expect(SameSolution(*dist4, *lazy_reference_), "solve.dist4",
                 "distributed solve differs from lazy");
  return Status::OK();
}

Status Run::BatchRound(int64_t deadline_ns) {
  // Lazy first: its first call is the reference the other stages check.
  const std::function<Status()> stages[] = {
      [this] { return Lazy(); },        [this] { return LazyParallel(); },
      [this] { return Parallel(); },    [this] { return Constrained(); },
      [this] { return Distributed(); }, [this] { return SolveJob(); },
      [this] { return PlanChain(); },   [this] { return StreamChain(); },
      [this] { return SetUpAgain(); },
  };
  for (const std::function<Status()>& stage : stages) {
    const int64_t start = NowNs();
    if (start >= deadline_ns) break;
    auto visit = [&]() -> Status {
      do {
        PREFCOVER_RETURN_NOT_OK(stage());
      } while (static_cast<double>(NowNs() - start) / 1e9 <
               kMinVisitSeconds);
      return Status::OK();
    };
    PREFCOVER_RETURN_NOT_OK(Window(visit));
  }
  return Status::OK();
}

Status Run::Window(const std::function<Status()>& measure) {
  const double stolen_before = StolenSeconds();
  windows_.emplace_back();
  in_window_ = true;
  const Status status = measure();
  in_window_ = false;
  windows_.back().stolen_s = StolenSeconds() - stolen_before;
  return status;
}

double Run::SelectWindows() {
  std::vector<const WindowSamples*> order;
  for (const WindowSamples& w : windows_) order.push_back(&w);
  std::stable_sort(order.begin(), order.end(),
                   [](const WindowSamples* a, const WindowSamples* b) {
                     return a->stolen_s < b->stolen_s;
                   });
  std::map<std::string, size_t> used;
  size_t disturbed = 0;
  for (const WindowSamples* w : order) {
    const bool quiet = w->stolen_s <= kMaxStolenSeconds;
    if (!quiet) ++disturbed;
    for (const auto& [name, values] : w->samples) {
      size_t& n = used[name];
      if (!quiet && n >= kMinWindows) continue;
      ++n;
      std::vector<double>& into = samples_[name];
      into.insert(into.end(), values.begin(), values.end());
    }
  }
  windows_.clear();
  return order.empty() ? 0.0
                       : static_cast<double>(disturbed) /
                             static_cast<double>(order.size());
}

Status Run::Measure() {
  const uint64_t rebalances_before =
      GlobalCounter(dist::dist_metric::kRebalances);
  const uint64_t retries_before = GlobalCounter("client.retries");
  const size_t min_rounds = c_.smoke ? 1 : kMinRounds;
  const int64_t end = NowNs() + static_cast<int64_t>(c_.seconds * 1e9);
  for (size_t round = 0;; ++round) {
    // The first rounds run whole, so every stage has its reference call.
    const int64_t deadline =
        round < min_rounds ? std::numeric_limits<int64_t>::max() : end;
    if (NowNs() >= deadline) break;
    Add("host.probe_ms", probe_.RunMs());
    const int64_t batch_start = NowNs();
    PREFCOVER_RETURN_NOT_OK(BatchRound(deadline));
    const double batch_s = static_cast<double>(NowNs() - batch_start) / 1e9;
    PREFCOVER_RETURN_NOT_OK(
        ServeSlice(c_.smoke ? 3.0 : batch_s * (1.0 - kBatchShare) /
                                        kBatchShare));
  }
  // The plain scan is the test oracle: timed once per run, at k=32.
  PREFCOVER_ASSIGN_OR_RETURN(
      Solution greedy, TimeExecution("greedy", "core.greedy_s", 1, [&] {
        return SolveGreedy(*d_->graph, kScanK, d_->options);
      }));
  checks_.Expect(SamePrefix(greedy, *lazy_reference_, kScanK) &&
                     greedy.items.size() == kScanK,
                 "solve.greedy_prefix",
                 "plain scan differs from lazy's prefix");
  if (!c_.workload->reload) {
    // Workloads without reload traffic still time one reload.
    Timed reload(&log_, "reload", "serve");
    auto reply = d_->load->Control("reload " + d_->index_paths[1]);
    Add("serve.reload_ms", reload.Stop() * 1e3);
    ++attempted_;
    if (!reply.ok() || reply->rfind("OK reload", 0) != 0) ++failed_;
  }
  Add("dist.rebalances",
      static_cast<double>(GlobalCounter(dist::dist_metric::kRebalances) -
                          rebalances_before));
  Add("client.retries", static_cast<double>(GlobalCounter("client.retries") -
                                            retries_before));
  return Status::OK();
}

Status Run::ServePoint(const RatePoint& point, double seconds) {
  LoadGenerator& load = *d_->load;
  PREFCOVER_ASSIGN_OR_RETURN(std::string metrics_before,
                             load.Control("metrics"));
  PREFCOVER_ASSIGN_OR_RETURN(std::string stats_before, load.Control("stats"));
  std::vector<std::string> control = {"stats"};
  if (c_.workload->reload) {
    control = {"reload " + d_->index_paths[1], "reload " + d_->index_paths[0]};
  }
  Timed t(&log_, std::string("open_loop_") + point.suffix, "serve");
  PREFCOVER_ASSIGN_OR_RETURN(
      PointStats stats,
      load.OpenLoop(point.qps, seconds, control, kControlPeriodS));
  t.Stop();
  PREFCOVER_ASSIGN_OR_RETURN(std::string metrics_after,
                             load.Control("metrics"));
  PREFCOVER_ASSIGN_OR_RETURN(std::string stats_after, load.Control("stats"));

  attempted_ += stats.sent + stats.control_sent;
  failed_ += stats.failed();
  checks_.Expect(stats.mismatches == 0, "serve.answers",
                 std::to_string(stats.mismatches) + " of " +
                     std::to_string(stats.checked) +
                     " sampled answers differ from AnswerOnIndex");
  // Percentiles are per point; the run reports their medians, so a host
  // stall during one point does not move the result.
  const std::string s = point.suffix;
  const double p50 = Quantile(stats.latency_us, 0.50);
  Add("serve_p50_us_" + s, p50);
  Add("serve_p95_us_" + s, Quantile(stats.latency_us, 0.95));
  Add("serve.p99_us_" + s, Quantile(stats.latency_us, 0.99));
  Add("loadgen.late_p99_us", Quantile(stats.late_us, 0.99));
  const double engine_p50 = DeltaQuantile(
      ParsePromHistogram(metrics_before, "serve_latency_us"),
      ParsePromHistogram(metrics_after, "serve_latency_us"), 0.5);
  Add("serve.engine_p50_us_" + s, engine_p50);
  Add("serve.wire_p50_us_" + s, p50 - engine_p50);
  const PromHistogram batch_before =
      ParsePromHistogram(metrics_before, "serve_batch_size");
  const PromHistogram batch_after =
      ParsePromHistogram(metrics_after, "serve_batch_size");
  const double batches = batch_after.count - batch_before.count;
  Add("serve.batch_size_mean_" + s,
      batches > 0.0 ? (batch_after.sum - batch_before.sum) / batches : 0.0);
  hits_ += static_cast<double>(StatsField(stats_after, "cache_hits") -
                               StatsField(stats_before, "cache_hits"));
  misses_ += static_cast<double>(StatsField(stats_after, "cache_misses") -
                                 StatsField(stats_before, "cache_misses"));
  shed_ += StatsField(stats_after, "shed") +
           StatsField(stats_after, "deadline_shed") -
           StatsField(stats_before, "shed") -
           StatsField(stats_before, "deadline_shed");
  if (c_.workload->reload) {
    for (double ms : stats.control_ms) Add("serve.reload_ms", ms);
  }
  return Status::OK();
}

Status Run::ServeSlice(double seconds) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    for (const RatePoint& point : kRatePoints) {
      PREFCOVER_RETURN_NOT_OK(
          Window([&] { return ServePoint(point, kServePointSeconds); }));
    }
    PREFCOVER_RETURN_NOT_OK(Window([&]() -> Status {
      Timed t(&log_, "closed_loop", "serve");
      PREFCOVER_ASSIGN_OR_RETURN(
          PointStats capacity,
          d_->load->ClosedLoop(kClosedLoopDepth, kClosedLoopSeconds));
      t.Stop();
      attempted_ += capacity.sent;
      failed_ += capacity.failed();
      checks_.Expect(capacity.mismatches == 0, "serve.answers",
                     std::to_string(capacity.mismatches) +
                         " sampled answers differ from AnswerOnIndex");
      Add("serve_capacity_qps", static_cast<double>(capacity.answered) /
                                    capacity.seconds);
      return Status::OK();
    }));
  } while (NowNs() < end);
  return Status::OK();
}

JsonValue Run::Finish() {
  // Tear down first so the process metrics cover the whole run.
  d_.reset();
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  Add("proc.cpu_s", CpuSeconds());
  Add("proc.ctx_switches_vol", static_cast<double>(usage.ru_nvcsw));
  Add("proc.ctx_switches_invol", static_cast<double>(usage.ru_nivcsw));
  Add("serve.cache_hit_rate",
      hits_ + misses_ > 0.0 ? hits_ / (hits_ + misses_) : 0.0);
  Add("serve.shed", static_cast<double>(shed_));
  Add("host.disturbed_share", SelectWindows());
  Add("dist.round_us.p50", Quantile(samples_["dist.round_us"], 0.50));
  Add("dist.round_us.p99", Quantile(samples_["dist.round_us"], 0.99));
  if (log_.enabled()) {
    const auto layers = log_.TimeByCategory();
    std::printf("layer         wall_s     self_s\n");
    for (const char* layer : kLayers) {
      auto it = layers.find(layer);
      const SpanLog::CategoryTime time =
          it == layers.end() ? SpanLog::CategoryTime() : it->second;
      std::printf("%-12s %8.4f  %8.4f\n", layer, time.wall_s, time.self_s);
      Add(std::string("layer.") + layer + ".self_s", time.self_s);
    }
    const double coverage = log_.MinChildCoverage("chain");
    Add("trace.chain_coverage", coverage);
    checks_.Expect(coverage >= 0.98, "trace.chain_coverage",
                   "stage spans cover only " + std::to_string(coverage) +
                       " of a chain's wall time");
  }

  auto metric_json = [this](const MetricDef& def) {
    JsonValue m = JsonValue::Object();
    const std::vector<double>& values = samples_[def.name];
    m.Set("value", JsonValue::Number(Quantile(values, def.quantile)));
    m.Set("quantile", JsonValue::Number(def.quantile));
    m.Set("unit", JsonValue::Str(def.unit));
    m.Set("p25", JsonValue::Number(Quantile(values, 0.25)));
    m.Set("p75", JsonValue::Number(Quantile(values, 0.75)));
    m.Set("n", JsonValue::Uint(values.size()));
    return m;
  };
  JsonValue end_to_end = JsonValue::Object();
  for (const MetricDef& def : kEndToEnd) {
    end_to_end.Set(def.name, metric_json(def));
  }
  JsonValue per_layer = JsonValue::Object();
  for (const MetricDef& def : PerLayerCatalogue()) {
    per_layer.Set(def.name, metric_json(def));
  }
  JsonValue digests = JsonValue::Object();
  for (const auto& [name, digest] : digests_) {
    digests.Set(name, JsonValue::Str(digest));
  }

  JsonValue out = JsonValue::Object();
  out.Set("workload", JsonValue::Str(c_.workload->name));
  out.Set("seed", JsonValue::Uint(c_.seed));
  out.Set("seconds", JsonValue::Number(c_.seconds));
  out.Set("trace", JsonValue::Bool(c_.trace));
  out.Set("smoke", JsonValue::Bool(c_.smoke));
  out.Set("correct", JsonValue::Bool(checks_.all_ok() && failed_ == 0));
  out.Set("attempted", JsonValue::Uint(attempted_));
  out.Set("failed", JsonValue::Uint(failed_));
  out.Set("checks", checks_.ToJson());
  out.Set("plan_variant",
          JsonValue::Str(std::string(VariantName(plan_variant_))));
  out.Set("solution_digests", std::move(digests));
  out.Set("end_to_end", std::move(end_to_end));
  out.Set("per_layer", std::move(per_layer));
  out.Set("env", EnvCapture::Capture().ToJson());
  return out;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "prefcover_e2e: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "prefcover_e2e: end-to-end benchmark of one workload (see "
      "bench/e2e/README.md)");
  flags.AddString("workload", "", "pe-zipf|pm-uniform-reload");
  flags.AddInt("seed", 42, "seed of every generated input");
  flags.AddDouble("seconds", 50.0, "measured time of the batch and serve "
                                   "stages together");
  flags.AddBool("trace", false, "record spans around every layer call");
  flags.AddString("trace_out", "", "Chrome trace JSON path (with --trace)");
  flags.AddBool("smoke", false,
                "one round with a 3 s serve slice");
  flags.AddString("work_dir", "", "directory for the generated files");
  flags.AddString("result", "", "result JSON path");
  Status st = flags.Parse(argc, argv);
  if (st.IsOutOfRange()) return 0;
  if (!st.ok()) return Fail(st);

  Config config;
  for (const Workload& w : kWorkloads) {
    if (flags.GetString("workload") == w.name) config.workload = &w;
  }
  if (config.workload == nullptr) {
    return Fail(Status::InvalidArgument("unknown --workload '" +
                                        flags.GetString("workload") + "'"));
  }
  if (flags.GetString("work_dir").empty() ||
      flags.GetString("result").empty()) {
    return Fail(
        Status::InvalidArgument("--work_dir and --result are required"));
  }
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.seconds = flags.GetDouble("seconds");
  config.trace = flags.GetBool("trace");
  config.smoke = flags.GetBool("smoke");
  config.work_dir = flags.GetString("work_dir");
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  Run run(config);
  if (Status s = run.SetUp(); !s.ok()) return Fail(s);
  if (Status s = run.Measure(); !s.ok()) return Fail(s);
  const JsonValue result = run.Finish();
  if (Status s = WriteFileAtomic(flags.GetString("result"), result.Dump());
      !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s\n", flags.GetString("result").c_str());
  if (config.trace && !flags.GetString("trace_out").empty()) {
    if (Status s = WriteFileAtomic(flags.GetString("trace_out"),
                                   run.log().ToChromeTrace().Dump());
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s\n", flags.GetString("trace_out").c_str());
  }
  if (!result.Find("correct")->bool_value()) {
    std::fprintf(stderr, "prefcover_e2e: output checks failed\n");
    return 1;
  }
  return 0;
}
