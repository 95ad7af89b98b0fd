#include "core/greedy_solver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "core/checkpoint.h"
#include "core/cover_function.h"
#include "core/cover_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bitset.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace prefcover {

namespace {

// The one run state every execution shares: the incremental cover state,
// the partial solution, the exclusion mask and the telemetry instruments.
//
// Telemetry lives in a run-scoped MetricsRegistry (SolverStats is built
// as a view over its snapshot at the end). Evaluators accumulate plain
// integer tallies, which the round loop folds into the counters once per
// selection round.
struct GreedyRun {
  GreedyRun(const PreferenceGraph* graph, Variant variant)
      : state(graph, variant),
        iterations(metrics.GetCounter(solver_metric::kIterations)),
        gain_evaluations(
            metrics.GetCounter(solver_metric::kGainEvaluations)),
        heap_pops(metrics.GetCounter(solver_metric::kHeapPops)),
        stale_refreshes(
            metrics.GetCounter(solver_metric::kStaleRefreshes)),
        seed_refills(metrics.GetCounter(solver_metric::kSeedRefills)),
        parallel_batches(
            metrics.GetCounter(solver_metric::kParallelBatches)),
        parallel_items(metrics.GetCounter(solver_metric::kParallelItems)) {}

  CoverState state;
  std::vector<NodeId> items;
  std::vector<double> prefix_covers;
  Bitset excluded;

  obs::MetricsRegistry metrics;  // run-scoped; declared before handles
  obs::Counter* iterations;
  obs::Counter* gain_evaluations;
  obs::Counter* heap_pops;
  obs::Counter* stale_refreshes;
  obs::Counter* seed_refills;
  obs::Counter* parallel_batches;
  obs::Counter* parallel_items;

  // Counter readings at the previous round boundary, for the per-round
  // deltas attached to "solver.round" trace events.
  uint64_t prev_gain_evals = 0;
  uint64_t prev_stale_refreshes = 0;

  SolverStats stats;  // timing / threads fields only, until Finish
  Stopwatch iteration_timer;

  // Cooperative cancellation + periodic checkpointing (both optional).
  const CancelToken* cancel = nullptr;
  const CheckpointConfig* checkpoint_cfg = nullptr;
  Checkpoint checkpoint_base;  // digest/hash/variant/k; prefix per write
  bool checkpoint_warned = false;
  bool truncated = false;

  // Round-boundary cancellation check. True when the search must stop:
  // the token tripped AND at least one item is already selected — the
  // nonempty-prefix guarantee means even a pre-expired deadline yields
  // the first selection. Sticky: the first firing marks the run
  // truncated and bumps the global solver.cancelled counter.
  bool ShouldStop() {
    if (cancel == nullptr || items.empty()) return false;
    if (!truncated) {
      if (!cancel->IsCancelled()) return false;
      truncated = true;
      obs::MetricsRegistry::Global()
          .GetCounter(solver_metric::kCancelled)
          ->Increment();
    }
    return true;
  }

  // Writes a checkpoint when one is due (`force` ignores the cadence —
  // the final write of a truncated run). Checkpoint IO never affects the
  // solve: a failure warns once, bumps checkpoint.write_failures and the
  // search carries on without durability.
  void MaybeCheckpoint(bool force) {
    if (checkpoint_cfg == nullptr || checkpoint_cfg->path.empty()) return;
    const uint32_t every = std::max(1u, checkpoint_cfg->every_rounds);
    if (!force && items.size() % every != 0) return;
    Checkpoint ckpt = checkpoint_base;
    ckpt.prefix = items;
    Status st = WriteCheckpoint(checkpoint_cfg->path, ckpt);
    if (!st.ok()) {
      obs::MetricsRegistry::Global()
          .GetCounter(checkpoint_metric::kWriteFailures)
          ->Increment();
      if (!checkpoint_warned) {
        checkpoint_warned = true;
        PREFCOVER_LOG(Warning)
            << "checkpoint write failed (solve continues, further "
               "failures suppressed): "
            << st.ToString();
      }
    }
  }

  // Folds an evaluator's drained work tallies into the counters; called
  // before Select, so a round's work lands in that round's trace deltas.
  void Tally(const EvaluatorCounters& tally) {
    const auto add = [](obs::Counter* counter, uint64_t delta) {
      if (delta > 0) counter->Increment(delta);
    };
    add(gain_evaluations, tally.gain_evaluations);
    add(heap_pops, tally.heap_pops);
    add(stale_refreshes, tally.stale_refreshes);
    add(seed_refills, tally.seed_refills);
    add(parallel_batches, tally.parallel_batches);
    add(parallel_items, tally.parallel_items);
  }

  // Commits one greedy selection, records its wall time, and emits the
  // per-round trace event with the round's cost deltas.
  void Select(NodeId v) {
    state.AddNode(v);
    items.push_back(v);
    prefix_covers.push_back(state.cover());
    iterations->Increment();
    double seconds = iteration_timer.ElapsedSeconds();
    stats.total_iteration_seconds += seconds;
    stats.max_iteration_seconds =
        std::max(stats.max_iteration_seconds, seconds);
    if (obs::Tracing::IsEnabled()) {
      const uint64_t evals = gain_evaluations->Value();
      const uint64_t stale = stale_refreshes->Value();
      obs::TraceArgs args;
      args.Add("round", static_cast<uint64_t>(items.size() - 1))
          .Add("node", static_cast<uint64_t>(v))
          .Add("gain_evals", evals - prev_gain_evals)
          .Add("stale_refreshes", stale - prev_stale_refreshes)
          .Add("cover", prefix_covers.back());
      prev_gain_evals = evals;
      prev_stale_refreshes = stale;
      const uint64_t dur_ns = static_cast<uint64_t>(seconds * 1e9);
      const uint64_t now_ns = obs::Tracing::NowNanos();
      obs::Tracing::RecordComplete(
          "solver.round", "solver",
          now_ns > dur_ns ? now_ns - dur_ns : 0, dur_ns, args.body());
    }
    iteration_timer.Reset();
    MaybeCheckpoint(/*force=*/false);
  }
};

// Validates options (exactly ValidateGreedyOptions) and seeds the run with
// the forced items, recording them as the first selections. Forced picks
// are not search iterations, so they bypass Select() and its counters.
Status InitGreedyRun(const PreferenceGraph& graph, size_t k,
                     const GreedyOptions& options, GreedyRun* run) {
  PREFCOVER_RETURN_NOT_OK(ValidateGreedyOptions(graph, k, options));
  run->cancel = options.cancel;
  run->items.reserve(k);
  run->prefix_covers.reserve(k);
  run->excluded = Bitset(graph.NumNodes());
  for (NodeId v : options.force_exclude) run->excluded.Set(v);
  // A resume prefix replaces force_include seeding: a validated
  // checkpoint prefix already begins with the forced items. Replaying
  // AddNode over it reproduces the exact cover state (and the exact
  // floating-point prefix covers) of the run that wrote the checkpoint.
  const std::vector<NodeId>& seed =
      options.checkpoint.resume_prefix.empty()
          ? options.force_include
          : options.checkpoint.resume_prefix;
  if (!options.checkpoint.resume_prefix.empty()) {
    if (seed.size() > k) {
      return Status::InvalidArgument(
          "resume prefix larger than the budget k");
    }
    Bitset seen(graph.NumNodes());
    for (NodeId v : seed) {
      if (v >= graph.NumNodes()) {
        return Status::InvalidArgument(
            "resume prefix item out of range: " + std::to_string(v));
      }
      if (seen.Test(v)) {
        return Status::InvalidArgument(
            "resume prefix item duplicated: " + std::to_string(v));
      }
      if (run->excluded.Test(v)) {
        return Status::InvalidArgument(
            "resume prefix item is force-excluded: " + std::to_string(v));
      }
      seen.Set(v);
    }
  }
  for (NodeId v : seed) {
    run->state.AddNode(v);
    run->items.push_back(v);
    run->prefix_covers.push_back(run->state.cover());
  }
  if (!options.checkpoint.path.empty()) {
    run->checkpoint_cfg = &options.checkpoint;
    run->checkpoint_base.graph_digest = GraphDigest(graph);
    run->checkpoint_base.options_hash = GreedyOptionsHash(options, k);
    run->checkpoint_base.variant = options.variant;
    run->checkpoint_base.k = k;
  }
  run->iteration_timer.Reset();
  return Status::OK();
}

Solution FinishSolution(GreedyRun&& run, Variant variant,
                        const char* algorithm, double seconds) {
  // A truncated run writes one final checkpoint so a later resume starts
  // from everything that was selected, not the last cadence boundary.
  if (run.truncated) run.MaybeCheckpoint(/*force=*/true);
  run.stats.truncated = run.truncated;
  // SolverStats is a view over the run registry; the totals also feed the
  // process-wide registry so cross-run snapshots see solver work.
  obs::MetricsSnapshot run_metrics = run.metrics.Snapshot();
  run.stats.LoadCounters(run_metrics);
  obs::MetricsRegistry::Global().MergeCounters(run_metrics);
  Solution sol;
  sol.items = std::move(run.items);
  sol.cover_after_prefix = std::move(run.prefix_covers);
  sol.cover = run.state.cover();
  sol.item_contributions = run.state.TakeItemContributions();
  sol.variant = variant;
  sol.algorithm = algorithm;
  sol.solve_seconds = seconds;
  sol.stats = run.stats;
  return sol;
}

}  // namespace

Status ValidateGreedyOptions(const PreferenceGraph& graph, size_t k,
                             const GreedyOptions& options) {
  if (std::isnan(options.stop_at_cover)) {
    return Status::InvalidArgument("stop_at_cover must not be NaN");
  }
  const size_t n = graph.NumNodes();
  Bitset excluded(n);
  for (NodeId v : options.force_exclude) {
    if (v >= n) {
      return Status::InvalidArgument("force_exclude item out of range: " +
                                     std::to_string(v));
    }
    if (excluded.Test(v)) {
      return Status::InvalidArgument("force_exclude item duplicated: " +
                                     std::to_string(v));
    }
    excluded.Set(v);
  }
  if (options.force_include.size() > k) {
    return Status::InvalidArgument("force_include larger than the budget k");
  }
  Bitset included(n);
  for (NodeId v : options.force_include) {
    if (v >= n) {
      return Status::InvalidArgument("force_include item out of range: " +
                                     std::to_string(v));
    }
    if (excluded.Test(v)) {
      return Status::InvalidArgument(
          "item " + std::to_string(v) +
          " is both force_include and force_exclude");
    }
    if (included.Test(v)) {
      return Status::InvalidArgument("force_include item duplicated: " +
                                     std::to_string(v));
    }
    included.Set(v);
  }
  return Status::OK();
}

namespace {

// The plain and parallel executions: every round computes every
// candidate's exact gain. [0, n) is fanned into the pool's chunks (one
// chunk without a pool — the literal O(nkD) loop); each chunk runs one
// batch GainsInto over its range and a strict-> argmax in ascending id
// order, and the chunk winners merge in chunk order, so ties keep the
// smaller id exactly as one serial scan would.
class ScanEvaluator final : public CandidateEvaluator {
 public:
  ScanEvaluator(const EvaluatorContext& context, ThreadPool* pool)
      : state_(context.state),
        excluded_(context.excluded),
        pool_(pool),
        n_(context.graph->NumNodes()),
        // Uninitialized on purpose — every round overwrites [0, n).
        gains_(std::make_unique_for_overwrite<double[]>(n_)),
        chunks_(pool == nullptr ? 1 : pool->num_threads()) {}

  Result<CandidateProposal> BestCandidate() override {
    ParallelForChunked(pool_, 0, n_, [this](size_t lo, size_t hi,
                                            size_t c) {
      chunks_[c] = ScanChunk(lo, hi);
    });
    CandidateProposal best;
    for (Chunk& chunk : chunks_) {
      if (BetterProposal(chunk.best, best)) best = chunk.best;
      counters_.gain_evaluations += chunk.candidates;
      chunk = Chunk();
    }
    if (pool_ != nullptr) {
      ++counters_.parallel_batches;
      counters_.parallel_items += n_;
    }
    return best;
  }

  Status CommitWinner(NodeId) override { return Status::OK(); }

  void DrainCounters(EvaluatorCounters* into) override {
    into->MergeFrom(&counters_);
  }

  Status Finish(SolverStats* stats) override {
    if (pool_ != nullptr) stats->threads = pool_->num_threads();
    return Status::OK();
  }

 private:
  struct Chunk {
    CandidateProposal best;
    uint64_t candidates = 0;
  };

  Chunk ScanChunk(size_t lo, size_t hi) const {
    const std::span<double> gains(gains_.get(), n_);
    state_->GainsInto(lo, hi, gains);
    Chunk chunk;
    double best_gain = -1.0;
    ForEachCandidateInRange(state_->retained(), *excluded_, lo, hi,
                            [&](NodeId v) {
                              ++chunk.candidates;
                              // Strict: ties keep the smaller id.
                              if (gains[v] > best_gain) {
                                best_gain = gains[v];
                                chunk.best = {true, best_gain, v};
                              }
                            });
    return chunk;
  }

  const CoverState* state_;
  const Bitset* excluded_;
  ThreadPool* pool_;
  size_t n_;
  std::unique_ptr<double[]> gains_;
  std::vector<Chunk> chunks_;
  EvaluatorCounters counters_;
};

// The lazy executions: one CelfShardEngine over [0, n). Lazy-parallel
// hands it the pool, which only a sweep seed uses; every round runs on the
// calling thread.
class CelfEvaluator final : public CandidateEvaluator {
 public:
  CelfEvaluator(const EvaluatorContext& context, ThreadPool* pool)
      : pool_(pool),
        engine_(context.state, context.excluded, EngineConfig(context, pool)) {}

  Result<CandidateProposal> BestCandidate() override {
    return engine_.Propose();
  }

  Status CommitWinner(NodeId v) override {
    engine_.OnCommitted(v);
    return Status::OK();
  }

  void DrainCounters(EvaluatorCounters* into) override {
    engine_.DrainCounters(into);
  }

  Status Finish(SolverStats* stats) override {
    if (pool_ != nullptr) stats->threads = pool_->num_threads();
    return Status::OK();
  }

 private:
  static CelfShardEngine::Config EngineConfig(const EvaluatorContext& context,
                                              ThreadPool* pool) {
    CelfShardEngine::Config config;
    config.shard_end = context.graph->NumNodes();
    config.seed_heap_capacity = context.options->seed_heap_capacity;
    config.pool = pool;
    return config;
  }

  ThreadPool* pool_;
  CelfShardEngine engine_;
};

template <typename Evaluator>
CandidateEvaluatorFactory InProcess(ThreadPool* pool) {
  return [pool](const EvaluatorContext& context)
             -> Result<std::unique_ptr<CandidateEvaluator>> {
    return std::unique_ptr<CandidateEvaluator>(
        std::make_unique<Evaluator>(context, pool));
  };
}

}  // namespace

Result<Solution> SolveGreedyWithEvaluator(
    const PreferenceGraph& graph, size_t k, const GreedyOptions& options,
    const CandidateEvaluatorFactory& factory, const char* algorithm) {
  PREFCOVER_RETURN_NOT_OK(ValidateInstance(graph, k, options.variant));
  Stopwatch timer;
  obs::Span solve_span("solver.solve", "solver");
  solve_span.Arg("algorithm", algorithm);
  solve_span.Arg("k", static_cast<uint64_t>(k));
  GreedyRun run(&graph, options.variant);
  PREFCOVER_RETURN_NOT_OK(InitGreedyRun(graph, k, options, &run));
  solve_span.Arg("simd", SimdLevelName(run.state.simd_level()).data());

  EvaluatorContext context;
  context.graph = &graph;
  context.state = &run.state;
  context.excluded = &run.excluded;
  context.committed = &run.items;
  context.k = k;
  context.options = &options;
  PREFCOVER_ASSIGN_OR_RETURN(std::unique_ptr<CandidateEvaluator> evaluator,
                             factory(context));

  const auto drain_counters = [&evaluator, &run] {
    EvaluatorCounters tally;
    evaluator->DrainCounters(&tally);
    run.Tally(tally);
  };
  run.iteration_timer.Reset();
  while (run.items.size() < k) {
    // The round boundary is the only cancellation point: a round either
    // completes its exact argmax or never starts.
    if (run.ShouldStop()) break;
    if (run.state.cover() >= options.stop_at_cover) break;
    PREFCOVER_ASSIGN_OR_RETURN(CandidateProposal best,
                               evaluator->BestCandidate());
    drain_counters();
    if (!best.found) break;  // every candidate retained or excluded
    run.Select(best.node);
    PREFCOVER_RETURN_NOT_OK(evaluator->CommitWinner(best.node));
  }
  // Work done while discovering exhaustion (or after the last commit)
  // still belongs to the run's totals.
  drain_counters();
  PREFCOVER_RETURN_NOT_OK(evaluator->Finish(&run.stats));
  return FinishSolution(std::move(run), options.variant, algorithm,
                        timer.ElapsedSeconds());
}

Result<Solution> SolveGreedy(const PreferenceGraph& graph, size_t k,
                             const GreedyOptions& options) {
  return SolveGreedyWithEvaluator(graph, k, options,
                                  InProcess<ScanEvaluator>(nullptr),
                                  "greedy");
}

Result<Solution> SolveGreedyParallel(const PreferenceGraph& graph, size_t k,
                                     ThreadPool* pool,
                                     const GreedyOptions& options) {
  return SolveGreedyWithEvaluator(graph, k, options,
                                  InProcess<ScanEvaluator>(pool),
                                  "greedy-parallel");
}

Result<Solution> SolveGreedyLazy(const PreferenceGraph& graph, size_t k,
                                 const GreedyOptions& options) {
  return SolveGreedyWithEvaluator(graph, k, options,
                                  InProcess<CelfEvaluator>(nullptr),
                                  "greedy-lazy");
}

Result<Solution> SolveGreedyLazyParallel(const PreferenceGraph& graph,
                                         size_t k, ThreadPool* pool,
                                         const GreedyOptions& options) {
  return SolveGreedyWithEvaluator(graph, k, options,
                                  InProcess<CelfEvaluator>(pool),
                                  "greedy-lazy-parallel");
}

double GreedyApproximationGuarantee(Variant variant, size_t k, size_t n) {
  const double one_minus_inv_e = 1.0 - 1.0 / std::numbers::e;
  if (variant == Variant::kIndependent || n == 0) return one_minus_inv_e;
  double ratio = static_cast<double>(k) / static_cast<double>(n);
  double vc_bound = 1.0 - (1.0 - ratio) * (1.0 - ratio);
  return std::max(one_minus_inv_e, vc_bound);
}

}  // namespace prefcover
