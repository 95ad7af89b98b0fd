// Scale-tier benchmark: the pinned large-instance suite behind the
// nightly perf-smoke job. Generates the tier's Zipf-skewed PE-shaped
// graph (S=20K, M=200K, L=1M, XL=10M nodes) and times graph generation
// plus the lazy-parallel solve (one CELF engine, pooled sweep seed) at
// the tier's pinned budget (k=100), emitting the machine-readable
// BENCH_core.json trajectory record.
//
// --dist_workers=N additionally times the distributed sharded greedy
// (SolveGreedyDistributed) against N in-process dist-worker servers on
// loopback TCP — real wire, real protocol, one process so the nightly
// ratio gate is immune to runner speed — plus the single-threaded lazy
// solve as the gate's single-process baseline. The XL tier is
// distributed-only: a single process is not the intended execution at
// 10M nodes, so --dist_workers >= 1 is required and the single-process
// solve cases are skipped (see DISTRIBUTED.md).
//
// Usage: scale_tier [--tier=S|M|L|XL] [--threads=N] [--seed=S]
//                   [--dist_workers=N]
//                   [--reps=R] [--warmup=W] [--json=PATH] [--csv]

#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_runner.h"
#include "core/greedy_solver.h"
#include "eval/experiment.h"
#include "synth/dataset_profiles.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>

#include <string>
#include <vector>

#include "dist/distributed_solver.h"
#include "dist/worker.h"
#include "serve/server.h"
#include "serve/transport.h"
#endif

using namespace prefcover;

namespace {

#if defined(__unix__) || defined(__APPLE__)

// One in-process dist-worker server: a listener on an ephemeral loopback
// port with a serial accept loop on a thread — the CLI's dist-worker
// topology without the process-spawn noise.
class WorkerServer {
 public:
  explicit WorkerServer(const PreferenceGraph* graph) : worker_(graph) {
    serve::IgnoreSigpipe();
    auto listener = serve::ListenTcp(0);
    if (!listener.ok()) return;
    listener_ = *listener;
    auto port = serve::LocalPort(listener_);
    if (!port.ok()) return;
    port_ = *port;
    thread_ = std::thread([this] {
      bool keep_serving = true;
      while (keep_serving) {
        auto client = serve::AcceptClient(listener_);
        if (!client.ok()) break;
        keep_serving = serve::ServeLineSessionLoop(
            *client,
            [this](const std::string& line, bool* stop_session,
                   bool* stop_server) {
              return worker_.HandleLine(line, stop_session, stop_server);
            });
      }
    });
  }

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

  uint16_t port() const { return port_; }

 private:
  dist::DistWorker worker_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

#endif  // __unix__ || __APPLE__

}  // namespace

int main(int argc, char** argv) {
  ExperimentEnv env("Scale-tier benchmark: perf-smoke instance suite");
  env.flags.AddString("tier", "S", "instance tier: S (20K), M (200K), "
                                   "L (1M) or XL (10M nodes)");
  env.flags.AddInt("dist_workers", 0,
                   "also time the distributed sharded solve against this "
                   "many in-process dist-worker servers (0 = skip; the XL "
                   "tier requires >= 1 and runs distributed-only)");
  env.flags.AddBool(
      "full_seed", false,
      "run the solve/lazy and solve/dist* cases with an exhaustive CELF "
      "seed (seed_heap_capacity = n, the classic exact first pass, which "
      "sweeps every gain) instead of the bound-ordered capped default — "
      "the configuration the nightly distributed perf gate compares "
      "under, where seeding work dominates and sharding it across "
      "workers pays");
  AddBenchFlags(&env.flags, /*default_reps=*/3, /*default_warmup=*/1);
  Status st = env.Parse(argc, argv);
  if (st.IsOutOfRange()) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  auto tier = ParseScaleTierName(env.flags.GetString("tier"));
  if (!tier.ok()) {
    std::fprintf(stderr, "%s\n", tier.status().ToString().c_str());
    return 1;
  }
  const ScaleTierSpec& spec = GetScaleTierSpec(*tier);
  const bool xl = *tier == ScaleTier::kXL;
  const int64_t dist_workers = env.flags.GetInt("dist_workers");
  if (dist_workers < 0) {
    std::fprintf(stderr, "--dist_workers must be >= 0\n");
    return 1;
  }
  if (xl && dist_workers < 1) {
    std::fprintf(stderr,
                 "tier XL is distributed-only: pass --dist_workers>=1\n");
    return 1;
  }
  size_t threads = env.threads > 1
                       ? env.threads
                       : std::max(1u, std::thread::hardware_concurrency());

  auto config =
      BenchConfigFromFlags(env.flags, "scale_tier", env.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  BenchRunner runner(*config);

  PrintExperimentHeader(
      env, "scale_tier",
      std::string("tier ") + spec.name + " (n=" + FormatCount(spec.num_nodes) +
          ", k=" + FormatCount(spec.solve_k) + ", " +
          std::to_string(threads) + " worker thread(s)" +
          (dist_workers > 0
               ? ", " + std::to_string(dist_workers) + " dist worker(s)"
               : "") +
          ")");

  // The solve cases reuse one generated graph; the generate case rebuilds
  // per repetition because construction is exactly what it measures.
  std::unique_ptr<PreferenceGraph> graph;

  BenchCase generate;
  generate.name = std::string("generate/") + spec.name;
  generate.profile = "PE";
  generate.solver = "synth";
  generate.n = spec.num_nodes;
  generate.run = [&](BenchRecorder* recorder) -> Status {
    auto g = GenerateScaleTierGraph(*tier, env.seed);
    if (!g.ok()) return g.status();
    recorder->Record("edges", static_cast<double>(g->NumEdges()));
    recorder->Record("max_in_degree",
                     static_cast<double>(g->MaxInDegree()));
    graph = std::make_unique<PreferenceGraph>(std::move(*g));
    return Status::OK();
  };
  st = runner.Run(generate);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  ThreadPool pool(threads);
  if (!xl) {
    BenchCase solve;
    solve.name = std::string("solve/lazy_parallel/") + spec.name;
    solve.profile = "PE";
    solve.variant = "independent";
    solve.solver = "lazy_parallel";
    solve.n = spec.num_nodes;
    solve.k = spec.solve_k;
    solve.threads = threads;
    solve.run = [&](BenchRecorder* recorder) -> Status {
      auto sol = SolveGreedyLazyParallel(*graph, spec.solve_k, &pool);
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      recorder->Record("gain_evaluations",
                       static_cast<double>(sol->stats.gain_evaluations));
      recorder->Record("heap_pops",
                       static_cast<double>(sol->stats.heap_pops));
      recorder->Record("stale_refreshes",
                       static_cast<double>(sol->stats.stale_refreshes));
      return Status::OK();
    };
    st = runner.Run(solve);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (dist_workers > 0) {
#if defined(__unix__) || defined(__APPLE__)
    GreedyOptions solve_options;
    if (env.flags.GetBool("full_seed")) {
      solve_options.seed_heap_capacity = spec.num_nodes;
    }
    if (!xl) {
      // The perf gate's single-process baseline: one thread, same kernel
      // tier as the distributed case below (both inherit any
      // PREFCOVER_SIMD_LEVEL pin), so the nightly ratio isolates the
      // sharding + wire overhead against exactly one process's work.
      BenchCase lazy;
      lazy.name = std::string("solve/lazy/") + spec.name;
      lazy.profile = "PE";
      lazy.variant = "independent";
      lazy.solver = "lazy";
      lazy.n = spec.num_nodes;
      lazy.k = spec.solve_k;
      lazy.threads = 1;
      lazy.run = [&](BenchRecorder* recorder) -> Status {
        auto sol = SolveGreedyLazy(*graph, spec.solve_k, solve_options);
        if (!sol.ok()) return sol.status();
        recorder->Record("cover", sol->cover);
        recorder->Record("gain_evaluations",
                         static_cast<double>(sol->stats.gain_evaluations));
        return Status::OK();
      };
      st = runner.Run(lazy);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }

    // Workers persist across repetitions (state-per-process, like the
    // real fleet); every repetition re-seats a fresh solve via `init`.
    std::vector<std::unique_ptr<WorkerServer>> servers;
    dist::DistSolveOptions dist_options;
    for (int64_t i = 0; i < dist_workers; ++i) {
      servers.push_back(std::make_unique<WorkerServer>(graph.get()));
      if (servers.back()->port() == 0) {
        std::fprintf(stderr, "failed to start in-process dist worker\n");
        return 1;
      }
      dist::DistWorkerEndpoint endpoint;
      endpoint.port = servers.back()->port();
      dist_options.workers.push_back(endpoint);
    }
    // Long init replays never happen here (fresh solves), but the XL
    // init builds a 10M-entry CoverState per worker — give it room.
    dist_options.client.request_timeout_ms = 60'000;
    ThreadPool fan_out(static_cast<size_t>(dist_workers));
    dist_options.pool = &fan_out;

    BenchCase dist;
    dist.name = std::string("solve/dist") + std::to_string(dist_workers) +
                "/" + spec.name;
    dist.profile = "PE";
    dist.variant = "independent";
    dist.solver = "dist";
    dist.n = spec.num_nodes;
    dist.k = spec.solve_k;
    dist.threads = static_cast<size_t>(dist_workers);
    dist.run = [&](BenchRecorder* recorder) -> Status {
      auto sol = dist::SolveGreedyDistributed(
          *graph, spec.solve_k, solve_options, dist_options);
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      return Status::OK();
    };
    st = runner.Run(dist);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
#else
    std::fprintf(stderr,
                 "--dist_workers requires a POSIX platform (serve "
                 "transport)\n");
    return 1;
#endif
  }

  env.Emit(runner.SummaryTable(),
           std::string("Scale tier ") + spec.name);
  st = MaybeWriteBenchJson(runner, env.flags);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
