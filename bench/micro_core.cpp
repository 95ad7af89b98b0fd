// Microbenchmarks for the hot paths: gain evaluation, node insertion,
// exact cover evaluation, graph finalization, and the full greedy family,
// across graph sizes — on the BenchRunner harness, so `--json` emits the
// machine-readable BENCH_core.json record the perf trajectory tracks.
//
// Sub-millisecond operations run a fixed internal batch per repetition;
// the batch size is recorded in the "items" counter so per-op cost is
// derivable (p50_ms / items).
//
// Usage: micro_core [--csv] [--seed=S] [--reps=R] [--warmup=W]
//                   [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <memory>
#include <tuple>
#include <vector>

#include "bench/bench_runner.h"
#include "core/constrained_solver.h"
#include "core/cover_function.h"
#include "core/cover_state.h"
#include "core/greedy_solver.h"
#include "eval/experiment.h"
#include "graph/graph_builder.h"
#include "graph/graph_generators.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "synth/dataset_profiles.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace prefcover;

namespace {

PreferenceGraph MakeGraph(uint32_t n, bool normalized, uint64_t seed) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = n;
  params.out_degree = 5;
  params.normalized_out_weights = normalized;
  auto g = GenerateUniformGraph(params, &rng);
  PREFCOVER_CHECK(g.ok());
  return std::move(g).value();
}

// Repeated single-gain probes against a partially-covered state.
BenchCase GainCase(const PreferenceGraph& g, Variant variant,
                   std::shared_ptr<CoverState> state, uint32_t n) {
  constexpr uint64_t kProbes = 1'000'000;
  BenchCase bench_case;
  bench_case.name = std::string("gain/") + std::string(VariantName(variant)) +
                    "/n" + std::to_string(n);
  bench_case.profile = "uniform";
  bench_case.variant = VariantName(variant);
  bench_case.solver = "gain_of";
  bench_case.n = n;
  bench_case.run = [&g, state](BenchRecorder* recorder) -> Status {
    NodeId probe = static_cast<NodeId>(g.NumNodes() - 1);
    double sink = 0.0;
    for (uint64_t i = 0; i < kProbes; ++i) sink += state->GainOf(probe);
    recorder->Record("items", static_cast<double>(kProbes));
    recorder->Record("gain_sum", sink);
    return Status::OK();
  };
  return bench_case;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentEnv env("micro_core: hot-path microbenchmarks");
  AddBenchFlags(&env.flags, /*default_reps=*/3, /*default_warmup=*/1);
  env.flags.AddDouble(
      "sample_metrics_s", 0.0,
      "run a background metrics sampler at this interval while the cases "
      "execute (0 = off); used by CI to bound sampler overhead");
  Status st = env.Parse(argc, argv);
  if (st.IsOutOfRange()) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto config = BenchConfigFromFlags(env.flags, "micro_core", env.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  BenchRunner runner(*config);
  PrintExperimentHeader(env, "micro_core", "hot-path microbenchmarks");

  // Optional live sampler: the perf gates run with this on to prove that
  // a 1 Hz snapshot loop does not perturb the hot paths.
  std::unique_ptr<obs::MetricsSampler> sampler;
  const double sample_interval_s = env.flags.GetDouble("sample_metrics_s");
  if (sample_interval_s > 0.0) {
    obs::TimeseriesOptions sampler_options;
    sampler_options.interval_s = sample_interval_s;
    sampler = std::make_unique<obs::MetricsSampler>(
        &obs::MetricsRegistry::Global(), sampler_options);
    sampler->Start();
  }

  auto run_or_die = [&runner](const BenchCase& bench_case) {
    Status run_status = runner.Run(bench_case);
    if (!run_status.ok()) {
      std::fprintf(stderr, "%s\n", run_status.ToString().c_str());
      std::exit(1);
    }
  };

  // Gain evaluation, both variants, small and large graphs. The graphs and
  // cover states outlive the cases; the shared_ptr keeps the lambda valid.
  std::vector<PreferenceGraph> graphs;
  graphs.reserve(4);
  for (uint32_t n : {1'000u, 100'000u}) {
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      graphs.push_back(
          MakeGraph(n, variant == Variant::kNormalized, env.seed));
      const PreferenceGraph& g = graphs.back();
      auto state = std::make_shared<CoverState>(&g, variant);
      for (NodeId v = 0; v < g.NumNodes() / 10; ++v) state->AddNode(v);
      run_or_die(GainCase(g, variant, state, n));
    }
  }

  // Kernel-level dispatch comparison: the same gain probe and AddNode
  // sweep pinned to each SimdLevel this process supports (scalar is the
  // oracle; word/avx2 are the overhauled paths). The per-level case
  // names make bench_compare surface the kernel speedup directly.
  {
    std::vector<SimdLevel> levels = {SimdLevel::kScalar, SimdLevel::kWord};
    if (MaxSupportedSimdLevel() == SimdLevel::kAvx2) {
      levels.push_back(SimdLevel::kAvx2);
    }
    const uint32_t n = 100'000;
    for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
      auto graph = std::make_shared<PreferenceGraph>(
          MakeGraph(n, variant == Variant::kNormalized, env.seed));
      for (SimdLevel level : levels) {
        auto state =
            std::make_shared<CoverState>(graph.get(), variant, level);
        for (NodeId v = 0; v < graph->NumNodes() / 10; ++v) {
          state->AddNode(v);
        }
        constexpr uint64_t kProbes = 1'000'000;
        BenchCase bench_case;
        bench_case.name = std::string("gain_kernel/") +
                          std::string(VariantName(variant)) + "/" +
                          std::string(SimdLevelName(level)) + "/n" +
                          std::to_string(n);
        bench_case.profile = "uniform";
        bench_case.variant = VariantName(variant);
        bench_case.solver = "gain_kernel";
        bench_case.n = n;
        bench_case.run = [graph, state](BenchRecorder* recorder) -> Status {
          NodeId probe = static_cast<NodeId>(graph->NumNodes() - 1);
          double sink = 0.0;
          for (uint64_t i = 0; i < kProbes; ++i) {
            sink += state->GainOf(probe);
          }
          recorder->Record("items", static_cast<double>(kProbes));
          recorder->Record("gain_sum", sink);
          return Status::OK();
        };
        run_or_die(bench_case);
      }
    }
    for (SimdLevel level : levels) {
      auto graph = std::make_shared<PreferenceGraph>(
          MakeGraph(n, false, env.seed));
      BenchCase bench_case;
      bench_case.name = std::string("add_node_kernel/") +
                        std::string(SimdLevelName(level)) + "/n" +
                        std::to_string(n);
      bench_case.profile = "uniform";
      bench_case.variant = "independent";
      bench_case.solver = "add_node_kernel";
      bench_case.n = n;
      bench_case.run = [graph, level](BenchRecorder* recorder) -> Status {
        CoverState state(graph.get(), Variant::kIndependent, level);
        for (NodeId v = 0; v < graph->NumNodes(); v += 7) {
          state.AddNode(v);
        }
        recorder->Record("items",
                         static_cast<double>(graph->NumNodes() / 7));
        recorder->Record("cover", state.cover());
        return Status::OK();
      };
      run_or_die(bench_case);
    }
  }

  // AddNode sweep: build up a cover state over every 7th node.
  for (uint32_t n : {1'000u, 100'000u}) {
    PreferenceGraph g = MakeGraph(n, false, env.seed);
    BenchCase bench_case;
    bench_case.name = "add_node_sweep/n" + std::to_string(n);
    bench_case.profile = "uniform";
    bench_case.variant = "independent";
    bench_case.solver = "add_node";
    bench_case.n = n;
    auto graph = std::make_shared<PreferenceGraph>(std::move(g));
    bench_case.run = [graph](BenchRecorder* recorder) -> Status {
      CoverState state(graph.get(), Variant::kIndependent);
      for (NodeId v = 0; v < graph->NumNodes(); v += 7) state.AddNode(v);
      recorder->Record("items",
                       static_cast<double>(graph->NumNodes() / 7));
      recorder->Record("cover", state.cover());
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // Exact cover evaluation over a fixed retained set.
  for (uint32_t n : {1'000u, 100'000u}) {
    auto graph =
        std::make_shared<PreferenceGraph>(MakeGraph(n, false, env.seed));
    auto retained = std::make_shared<Bitset>(graph->NumNodes());
    for (NodeId v = 0; v < graph->NumNodes(); v += 3) retained->Set(v);
    BenchCase bench_case;
    bench_case.name = "evaluate_cover_exact/n" + std::to_string(n);
    bench_case.profile = "uniform";
    bench_case.variant = "independent";
    bench_case.solver = "evaluate_cover";
    bench_case.n = n;
    bench_case.run = [graph, retained](BenchRecorder* recorder) -> Status {
      double cover =
          EvaluateCover(*graph, *retained, Variant::kIndependent);
      recorder->Record("cover", cover);
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // CSR finalization from a pre-drawn edge list.
  for (uint32_t n : {10'000u, 100'000u}) {
    auto edges = std::make_shared<
        std::vector<std::tuple<NodeId, NodeId, double>>>();
    Rng rng(env.seed ^ 7);
    for (uint32_t v = 0; v < n; ++v) {
      for (int e = 0; e < 5; ++e) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(n));
        if (u == v) continue;
        edges->emplace_back(v, u, 0.5);
      }
    }
    BenchCase bench_case;
    bench_case.name = "graph_finalize/n" + std::to_string(n);
    bench_case.profile = "uniform";
    bench_case.solver = "finalize";
    bench_case.n = n;
    bench_case.run = [n, edges](BenchRecorder* recorder) -> Status {
      GraphBuilder builder;
      builder.Reserve(n, edges->size());
      builder.AddNodes(n);
      for (uint32_t v = 0; v < n; ++v) {
        PREFCOVER_RETURN_NOT_OK(builder.SetNodeWeight(v, 1.0 / n));
      }
      for (auto& [from, to, w] : *edges) {
        // Duplicate random edges are possible; only the success path is
        // interesting for timing, so tolerate either.
        std::ignore = builder.AddEdge(from, to, w);
      }
      GraphValidationOptions options;
      options.require_normalized_node_weights = false;
      auto g = builder.Finalize(options);
      recorder->Record("items", static_cast<double>(edges->size()));
      recorder->Record("finalize_ok", g.ok() ? 1.0 : 0.0);
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // The greedy family on PE-shaped graphs, k = n/20.
  for (uint32_t n : {10'000u, 50'000u}) {
    auto g = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n, env.seed);
    PREFCOVER_CHECK(g.ok());
    auto graph = std::make_shared<PreferenceGraph>(std::move(*g));
    const size_t k = n / 20;
    BenchCase bench_case;
    bench_case.name = "solve/lazy/n" + std::to_string(n);
    bench_case.profile = "PE";
    bench_case.variant = "independent";
    bench_case.solver = "lazy";
    bench_case.n = n;
    bench_case.k = k;
    bench_case.run = [graph, k](BenchRecorder* recorder) -> Status {
      auto sol = SolveGreedyLazy(*graph, k);
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      recorder->Record("gain_evaluations",
                       static_cast<double>(sol->stats.gain_evaluations));
      recorder->Record("heap_pops",
                       static_cast<double>(sol->stats.heap_pops));
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // The constrained cost-ratio greedy at unit costs with no constraints:
  // selection-identical to solve/lazy/n10000 and run by the same round
  // loop and engine, so the runtime ratio between the two cases is the pure
  // overhead of the constraint plumbing (the constrained evaluator, its
  // per-solve setup, the singleton guard when budgeted). perf.yml gates
  // it at <= 1.05x.
  {
    const uint32_t n = 10'000;
    auto g = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n, env.seed);
    PREFCOVER_CHECK(g.ok());
    auto graph = std::make_shared<PreferenceGraph>(std::move(*g));
    const size_t k = n / 20;
    BenchCase bench_case;
    bench_case.name = "solve/budget_greedy/n" + std::to_string(n);
    bench_case.profile = "PE";
    bench_case.variant = "independent";
    bench_case.solver = "constrained";
    bench_case.n = n;
    bench_case.k = k;
    bench_case.run = [graph, k](BenchRecorder* recorder) -> Status {
      ConstrainedCoverOptions options;
      options.max_items = k;
      auto sol = SolveConstrainedCover(*graph, ConstraintSpec(), options);
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->solution.cover);
      recorder->Record(
          "gain_evaluations",
          static_cast<double>(sol->solution.stats.gain_evaluations));
      recorder->Record("heap_pops",
                       static_cast<double>(sol->solution.stats.heap_pops));
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // The same lazy solve with an armed, never-firing deadline: the delta
  // against solve/lazy/n10000 is the cost of the per-round cancellation
  // check (one relaxed load + one steady_clock read), asserted < 1% in
  // review.
  {
    const uint32_t n = 10'000;
    auto g = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n, env.seed);
    PREFCOVER_CHECK(g.ok());
    auto graph = std::make_shared<PreferenceGraph>(std::move(*g));
    const size_t k = n / 20;
    BenchCase bench_case;
    bench_case.name = "solve/lazy_deadline/n" + std::to_string(n);
    bench_case.profile = "PE";
    bench_case.variant = "independent";
    bench_case.solver = "lazy_deadline";
    bench_case.n = n;
    bench_case.k = k;
    bench_case.run = [graph, k](BenchRecorder* recorder) -> Status {
      CancelToken cancel;
      cancel.SetTimeout(3600.0);  // armed but never fires
      GreedyOptions options;
      options.cancel = &cancel;
      auto sol = SolveGreedyLazy(*graph, k, options);
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      recorder->Record("truncated", sol->stats.truncated ? 1.0 : 0.0);
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // Sharded CELF, one case per pool width (one engine per pool thread);
  // the telemetry counters expose how much work the pruning saves vs.
  // the full O(nk) scan.
  {
    struct ParallelConfig {
      uint32_t n;
      size_t workers;
    };
    for (const ParallelConfig& pc :
         {ParallelConfig{10'000, 1}, ParallelConfig{10'000, 2},
          ParallelConfig{10'000, 4}, ParallelConfig{50'000, 4}}) {
      auto g = GenerateProfileGraphWithNodes(DatasetProfile::kPE, pc.n,
                                             env.seed);
      PREFCOVER_CHECK(g.ok());
      auto graph = std::make_shared<PreferenceGraph>(std::move(*g));
      auto pool = std::make_shared<ThreadPool>(pc.workers);
      const size_t k = pc.n / 20;
      BenchCase bench_case;
      bench_case.name = "solve/lazy_parallel/n" + std::to_string(pc.n) +
                        "/w" + std::to_string(pc.workers);
      bench_case.profile = "PE";
      bench_case.variant = "independent";
      bench_case.solver = "lazy_parallel";
      bench_case.n = pc.n;
      bench_case.k = k;
      bench_case.threads = pc.workers;
      bench_case.run = [graph, pool, k](BenchRecorder* recorder) -> Status {
        auto sol = SolveGreedyLazyParallel(*graph, k, pool.get());
        if (!sol.ok()) return sol.status();
        recorder->Record("cover", sol->cover);
        recorder->Record("gain_evaluations",
                         static_cast<double>(sol->stats.gain_evaluations));
        recorder->Record("stale_ratio", sol->stats.StaleRatio());
        recorder->Record("pool_utilization",
                         sol->stats.PoolUtilization());
        return Status::OK();
      };
      run_or_die(bench_case);
    }
  }

  // Observability overhead. span_disabled measures the cost every
  // uninstrumented-feeling hot path actually pays (one relaxed load per
  // Span); span_enabled measures full recording (two clock reads plus a
  // ring append per span, args formatted). lazy_traced runs a whole solve
  // with tracing armed, to compare against solve/lazy/n10000 above.
  {
    constexpr uint64_t kSpans = 1'000'000;
    BenchCase disabled_case;
    disabled_case.name = "obs/span_disabled";
    disabled_case.profile = "uniform";
    disabled_case.solver = "span";
    disabled_case.run = [](BenchRecorder* recorder) -> Status {
      obs::Tracing::Stop();
      for (uint64_t i = 0; i < kSpans; ++i) {
        obs::Span span("bench.noop", "bench");
        span.Arg("i", i);
      }
      recorder->Record("items", static_cast<double>(kSpans));
      return Status::OK();
    };
    run_or_die(disabled_case);

    BenchCase enabled_case;
    enabled_case.name = "obs/span_enabled";
    enabled_case.profile = "uniform";
    enabled_case.solver = "span";
    enabled_case.run = [](BenchRecorder* recorder) -> Status {
      // A small ring keeps the memory bill flat; overwriting the oldest
      // event costs the same as appending.
      obs::TracingOptions options;
      options.ring_capacity = 4096;
      obs::Tracing::Start(options);
      for (uint64_t i = 0; i < kSpans; ++i) {
        obs::Span span("bench.noop", "bench");
        span.Arg("i", i);
      }
      obs::Tracing::Stop();
      recorder->Record("items", static_cast<double>(kSpans));
      recorder->Record("dropped",
                       static_cast<double>(obs::Tracing::DroppedEvents()));
      return Status::OK();
    };
    run_or_die(enabled_case);
  }

  {
    const uint32_t n = 10'000;
    auto g = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n, env.seed);
    PREFCOVER_CHECK(g.ok());
    auto graph = std::make_shared<PreferenceGraph>(std::move(*g));
    const size_t k = n / 20;
    BenchCase bench_case;
    bench_case.name = "solve/lazy_traced/n" + std::to_string(n);
    bench_case.profile = "PE";
    bench_case.variant = "independent";
    bench_case.solver = "lazy_traced";
    bench_case.n = n;
    bench_case.k = k;
    bench_case.run = [graph, k](BenchRecorder* recorder) -> Status {
      obs::Tracing::Start();
      auto sol = SolveGreedyLazy(*graph, k);
      obs::Tracing::Stop();
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      recorder->Record("gain_evaluations",
                       static_cast<double>(sol->stats.gain_evaluations));
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // The literal O(nkD) loop, as the pruning reference point.
  for (uint32_t n : {2'000u, 10'000u}) {
    auto g = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n, env.seed);
    PREFCOVER_CHECK(g.ok());
    auto graph = std::make_shared<PreferenceGraph>(std::move(*g));
    const size_t k = n / 20;
    BenchCase bench_case;
    bench_case.name = "solve/plain/n" + std::to_string(n);
    bench_case.profile = "PE";
    bench_case.variant = "independent";
    bench_case.solver = "plain";
    bench_case.n = n;
    bench_case.k = k;
    bench_case.run = [graph, k](BenchRecorder* recorder) -> Status {
      auto sol = SolveGreedy(*graph, k);
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      recorder->Record("gain_evaluations",
                       static_cast<double>(sol->stats.gain_evaluations));
      return Status::OK();
    };
    run_or_die(bench_case);
  }

  // Serving hot path: sequential SubmitAndWait through the full engine
  // (queue, dispatcher, cache) against a prebuilt index. Sequential
  // submission keeps the cache traffic deterministic: misses = distinct
  // subs keys, everything else hits.
  {
    const uint32_t n = 10'000;
    auto graph =
        std::make_shared<PreferenceGraph>(MakeGraph(n, false, env.seed));
    auto sol = SolveGreedyLazy(*graph, n / 20);
    PREFCOVER_CHECK(sol.ok());
    auto built = serve::ServingIndex::Build(*graph, *sol);
    PREFCOVER_CHECK(built.ok());
    auto index =
        std::make_shared<const serve::ServingIndex>(std::move(*built));
    BenchCase bench_case;
    bench_case.name = "serve/query_engine/n" + std::to_string(n);
    bench_case.profile = "uniform";
    bench_case.variant = "independent";
    bench_case.solver = "query_engine";
    bench_case.n = n;
    bench_case.run = [index, n](BenchRecorder* recorder) -> Status {
      constexpr uint64_t kQueries = 10'000;
      serve::QueryEngineOptions options;
      options.batch_window_us = 0;  // latency mode: no fill wait
      serve::QueryEngine engine(index, options);
      uint64_t ok_count = 0;
      for (uint64_t i = 0; i < kQueries; ++i) {
        serve::Request request;
        if (i % 4 == 0) {
          request.type = serve::QueryType::kCovered;
          request.v = static_cast<NodeId>((i * 7) % n);
        } else {
          request.type = serve::QueryType::kSubstitutes;
          request.v = static_cast<NodeId>((i * 13) % 512);  // cacheable set
          request.top_j = 4;
        }
        if (engine.SubmitAndWait(request).status.ok()) ++ok_count;
      }
      serve::QueryEngineStats stats = engine.Stats();
      recorder->Record("items", static_cast<double>(kQueries));
      recorder->Record("ok", static_cast<double>(ok_count));
      recorder->Record("cache_hits", static_cast<double>(stats.cache_hits));
      recorder->Record("cache_misses",
                       static_cast<double>(stats.cache_misses));
      return Status::OK();
    };
    run_or_die(bench_case);

    // Same stream with every fault-tolerance feature ARMED but idle:
    // per-request deadlines (EWMA shed math runs at every admission),
    // brownout watermark set but never reached. perf.yml gates this
    // case against the plain sibling above at <= 1.05x — the price of
    // the robustness rails on a healthy server.
    BenchCase ft_case;
    ft_case.name = "serve/query_engine_ft/n" + std::to_string(n);
    ft_case.profile = "uniform";
    ft_case.variant = "independent";
    ft_case.solver = "query_engine_ft";
    ft_case.n = n;
    ft_case.run = [index, n](BenchRecorder* recorder) -> Status {
      constexpr uint64_t kQueries = 10'000;
      serve::QueryEngineOptions options;
      options.batch_window_us = 0;
      options.default_deadline_us = 10'000'000;  // 10s: armed, never hit
      options.deadline_shed = true;
      options.brownout_watermark = 1'000'000;  // armed, never reached
      serve::QueryEngine engine(index, options);
      uint64_t ok_count = 0;
      for (uint64_t i = 0; i < kQueries; ++i) {
        serve::Request request;
        if (i % 4 == 0) {
          request.type = serve::QueryType::kCovered;
          request.v = static_cast<NodeId>((i * 7) % n);
        } else {
          request.type = serve::QueryType::kSubstitutes;
          request.v = static_cast<NodeId>((i * 13) % 512);
          request.top_j = 4;
        }
        if (engine.SubmitAndWait(request).status.ok()) ++ok_count;
      }
      serve::QueryEngineStats stats = engine.Stats();
      recorder->Record("items", static_cast<double>(kQueries));
      recorder->Record("ok", static_cast<double>(ok_count));
      recorder->Record("deadline_shed",
                       static_cast<double>(stats.deadline_shed));
      recorder->Record("brownouts",
                       static_cast<double>(stats.brownouts));
      return Status::OK();
    };
    run_or_die(ft_case);
  }

  if (sampler != nullptr) {
    sampler->Stop();
    std::fprintf(stderr, "metrics sampler: %zu sample(s) at %.3gs\n",
                 sampler->SampleCount(), sample_interval_s);
  }

  env.Emit(runner.SummaryTable(), "micro_core hot paths");
  st = MaybeWriteBenchJson(runner, env.flags);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
