// Figure 4e: parallelizability of Greedy — wall time of the per-iteration
// candidate scan on a fixed PE-shaped graph as the worker count sweeps
// {1, 4, 8, 16, 32}. The paper reports ~20x at 32 cores on its server.
//
// NOTE: speedup is bounded by the machine's physical cores; on a 1-core
// host every row measures the same serial execution plus pool overhead
// (recorded as such in EXPERIMENTS.md). The sweep still exercises the
// partitioning and reduction logic at every width.
//
// Runs on the BenchRunner harness: every (algorithm, width) pair is a
// BenchCase, so --json emits the machine-readable BENCH_core.json record
// that bench_compare diffs across commits.
//
// Usage: fig4e_parallel_speedup [--csv] [--n=20000] [--k=500]
//                               [--reps=R] [--warmup=W] [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench/bench_runner.h"
#include "core/greedy_solver.h"
#include "eval/experiment.h"
#include "synth/dataset_profiles.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace prefcover;

int main(int argc, char** argv) {
  ExperimentEnv env("Figure 4e: parallel speedup of Greedy");
  env.flags.AddInt("n", 20000, "graph size");
  env.flags.AddInt("k", 500, "budget");
  AddBenchFlags(&env.flags, /*default_reps=*/2, /*default_warmup=*/0);
  Status st = env.Parse(argc, argv);
  if (st.IsOutOfRange()) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  uint32_t n = static_cast<uint32_t>(env.flags.GetInt("n"));
  size_t k = static_cast<size_t>(env.flags.GetInt("k"));
  if (env.scale == 1.0) {
    n = 100'000;  // --full: a heavier fixed instance
    k = 2'000;
  }
  PrintExperimentHeader(
      env, "Figure 4e",
      "parallel greedy wall time vs worker count (n=" + FormatCount(n) +
          ", k=" + FormatCount(k) + "); this host has " +
          std::to_string(std::thread::hardware_concurrency()) +
          " hardware thread(s)");

  auto graph = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n,
                                             env.seed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  auto config =
      BenchConfigFromFlags(env.flags, "fig4e_parallel_speedup", env.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  BenchRunner runner(*config);

  // Both parallel executions at every width, with the solver telemetry
  // that makes the lazy pruning visible: the lazy-parallel path must
  // evaluate strictly fewer gains than the exhaustive parallel scan. At
  // the default seed lazy-parallel's seed walks the bound order on the
  // calling thread, so only the scan's time falls with the width.
  struct Algo {
    const char* id;
    Result<Solution> (*solve)(const PreferenceGraph&, size_t, ThreadPool*,
                              const GreedyOptions&);
  };
  const Algo algos[] = {{"parallel", &SolveGreedyParallel},
                        {"lazy_parallel", &SolveGreedyLazyParallel}};
  for (size_t workers : {1u, 4u, 8u, 16u, 32u}) {
    ThreadPool pool(workers);
    for (const Algo& algo : algos) {
      BenchCase bench_case;
      bench_case.name =
          std::string("solve/") + algo.id + "/w" + std::to_string(workers);
      bench_case.profile = "PE";
      bench_case.variant = "independent";
      bench_case.solver = algo.id;
      bench_case.n = n;
      bench_case.k = k;
      bench_case.threads = workers;
      bench_case.run = [&graph, &pool, &algo,
                        k](BenchRecorder* recorder) -> Status {
        auto sol = algo.solve(*graph, k, &pool, GreedyOptions());
        if (!sol.ok()) return sol.status();
        recorder->Record("cover", sol->cover);
        recorder->Record("gain_evaluations",
                         static_cast<double>(sol->stats.gain_evaluations));
        recorder->Record("stale_ratio", sol->stats.StaleRatio());
        recorder->Record("pool_utilization", sol->stats.PoolUtilization());
        return Status::OK();
      };
      st = runner.Run(bench_case);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
  }

  // Paper-style table, rendered from the harness percentiles so the text
  // output and the JSON record never disagree.
  auto counter = [](const BenchResult& r, const char* name) {
    for (const auto& [key, value] : r.counters) {
      if (key == name) return value;
    }
    return 0.0;
  };
  TablePrinter table({"algorithm", "workers", "p50 time", "speedup vs 1",
                      "cover", "gain evals", "stale %", "pool util %"});
  double base_p50[2] = {0.0, 0.0};
  uint64_t gain_evals[2] = {0, 0};
  for (const BenchResult& r : runner.results()) {
    size_t algo_index = r.solver == "parallel" ? 0 : 1;
    if (r.threads == 1) base_p50[algo_index] = r.wall.p50_ms;
    gain_evals[algo_index] =
        static_cast<uint64_t>(counter(r, "gain_evaluations"));
    table.AddRow(
        {r.solver, std::to_string(r.threads),
         FormatDuration(r.wall.p50_ms * 1e-3),
         TablePrinter::Fixed(
             r.wall.p50_ms > 0 ? base_p50[algo_index] / r.wall.p50_ms : 0.0,
             2),
         TablePrinter::Percent(counter(r, "cover"), 2),
         FormatCount(static_cast<uint64_t>(counter(r, "gain_evaluations"))),
         TablePrinter::Percent(counter(r, "stale_ratio"), 1),
         TablePrinter::Percent(counter(r, "pool_utilization"), 0)});
  }
  env.Emit(table, "Parallel scan speedup");
  std::printf("\nlazy pruning: %s gain evaluations vs %s for the "
              "exhaustive parallel scan (%.1fx fewer)\n",
              FormatCount(gain_evals[1]).c_str(),
              FormatCount(gain_evals[0]).c_str(),
              gain_evals[1] > 0 ? static_cast<double>(gain_evals[0]) /
                                      static_cast<double>(gain_evals[1])
                                : 0.0);
  st = MaybeWriteBenchJson(runner, env.flags);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
