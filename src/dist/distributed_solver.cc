#include "dist/distributed_solver.h"

#if defined(__unix__) || defined(__APPLE__)

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/checkpoint.h"
#include "dist/protocol.h"
#include "obs/metrics.h"
#include "serve/transport.h"
#include "util/logging.h"
#include "util/timer.h"

namespace prefcover {
namespace dist {

namespace {

/// One worker process as the coordinator sees it. The client owns the
/// connection; `seq` mirrors the worker's commit sequence so the commit
/// broadcast knows who still needs the current round.
struct WorkerHandle {
  DistWorkerEndpoint endpoint;
  std::unique_ptr<serve::ResilientClient> client;
  size_t shard_begin = 0;
  size_t shard_end = 0;
  bool alive = true;
  uint64_t seq = 0;
  // Next-round proposal piggybacked on the last commit reply, valid for
  // round `cached_seq`. Lets the steady-state round skip the propose
  // fan-out entirely. `cached_tally` holds the counters that proposal
  // drained, merged when the proposal is consumed.
  std::optional<CandidateProposal> cached_proposal;
  uint64_t cached_seq = 0;
  EvaluatorCounters cached_tally;
};

/// Strips the expected `OK <verb> ` reply prefix; empty optional when the
/// reply is an error line or a different verb's.
std::optional<std::string_view> ReplyArgs(const std::string& reply,
                                          std::string_view verb) {
  std::string_view rest = reply;
  if (rest.rfind("OK ", 0) != 0) return std::nullopt;
  rest.remove_prefix(3);
  if (rest.rfind(verb, 0) != 0) return std::nullopt;
  rest.remove_prefix(verb.size());
  if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  return rest;
}

class DistributedCandidateEvaluator : public CandidateEvaluator {
 public:
  static Result<std::unique_ptr<CandidateEvaluator>> Create(
      const EvaluatorContext& context, const DistSolveOptions& options) {
    auto evaluator = std::unique_ptr<DistributedCandidateEvaluator>(
        new DistributedCandidateEvaluator(context, options));
    PREFCOVER_RETURN_NOT_OK(evaluator->Connect());
    return {std::move(evaluator)};
  }

  ~DistributedCandidateEvaluator() override {
    // Best-effort goodbye: ends each worker's session (their solve state
    // persists; dist_launch shuts the processes down separately). `quit`
    // is non-idempotent, so this is exactly one bounded attempt each.
    for (WorkerHandle& worker : workers_) {
      if (worker.alive) (void)worker.client->Call("quit");
    }
  }

  Result<CandidateProposal> BestCandidate() override {
    const size_t committed = context_.committed->size();
    if (options_.on_round) options_.on_round(committed);
    for (;;) {
      Stopwatch round_timer;
      std::vector<size_t> alive = AliveIndices();
      if (alive.empty()) {
        return Status::Internal(
            "distributed solve lost every worker (last: " + last_error_ +
            ")");
      }
      // Steady state sends nothing here: every worker that answered the
      // previous commit piggybacked this round's proposal on its reply.
      // Only workers without a valid cached proposal (first round, or
      // freshly re-seated after a rebalance) get a propose round trip.
      const std::string request = "propose seq=" + std::to_string(committed);
      std::vector<size_t> ask;
      for (size_t idx : alive) {
        const WorkerHandle& worker = workers_[idx];
        if (!worker.cached_proposal.has_value() ||
            worker.cached_seq != committed) {
          ask.push_back(idx);
        }
      }
      std::vector<std::optional<Result<std::string>>> replies(
          workers_.size());
      FanOut(ask, [&](size_t idx) {
        replies[idx] = CallWorker(workers_[idx], request);
      });

      CandidateProposal best;
      EvaluatorCounters round_tally;
      bool round_ok = true;
      for (size_t idx : alive) {
        if (!replies[idx].has_value()) {
          // Served from the commit piggyback; no wire round trip.
          WorkerHandle& worker = workers_[idx];
          EvaluatorCounters tally = worker.cached_tally;
          round_tally.MergeFrom(&tally);
          m_proposals_->Increment();
          if (BetterProposal(*worker.cached_proposal, best)) {
            best = *worker.cached_proposal;
          }
          continue;
        }
        Result<std::string>& reply = *replies[idx];
        if (!reply.ok()) {
          MarkDead(idx, reply.status());
          round_ok = false;
          continue;
        }
        auto proposal = ParseProposeReply(*reply, committed, &round_tally);
        if (!proposal.ok()) {
          // The worker answered but is out of step (e.g. it restarted, or
          // a half-applied broadcast): a re-init brings it back. Handled
          // below by the full rebalance.
          PREFCOVER_LOG(Warning)
              << "dist: worker " << workers_[idx].endpoint.host << ":"
              << workers_[idx].endpoint.port
              << " propose rejected: " << proposal.status().ToString();
          last_error_ = proposal.status().ToString();
          round_ok = false;
          continue;
        }
        m_proposals_->Increment();
        if (BetterProposal(*proposal, best)) best = *proposal;
      }
      if (!round_ok) {
        PREFCOVER_RETURN_NOT_OK(Rebalance());
        continue;  // retry the round against the re-seated fleet
      }
      tally_.MergeFrom(&round_tally);
      m_rounds_->Increment();
      m_merge_seconds_->Record(round_timer.ElapsedSeconds());
      return best;
    }
  }

  Status CommitWinner(NodeId v) override {
    // The driver has already applied AddNode(v) and appended v to the
    // committed prefix, so the round being committed is the previous
    // sequence number and the local cover is the post-commit one.
    const uint64_t round_seq = context_.committed->size() - 1;
    const std::string expect_cover = FormatF64(context_.state->cover());
    const std::string request = "commit seq=" + std::to_string(round_seq) +
                                " node=" + std::to_string(v);
    for (;;) {
      std::vector<size_t> pending;
      for (size_t i = 0; i < workers_.size(); ++i) {
        if (workers_[i].alive && workers_[i].seq == round_seq) {
          pending.push_back(i);
        }
      }
      if (pending.empty()) return Status::OK();

      std::vector<std::optional<Result<std::string>>> replies(
          workers_.size());
      FanOut(pending, [&](size_t idx) {
        replies[idx] = CallWorker(workers_[idx], request);
      });

      bool round_ok = true;
      for (size_t idx : pending) {
        Result<std::string>& reply = *replies[idx];
        if (!reply.ok()) {
          MarkDead(idx, reply.status());
          round_ok = false;
          continue;
        }
        auto args = ReplyArgs(*reply, "commit");
        if (!args.has_value()) {
          last_error_ = *reply;
          round_ok = false;
          continue;
        }
        const KvArgs kv(*args);
        auto seq = kv.GetU64("seq");
        auto cover = kv.GetString("cover");
        if (!seq.ok() || *seq != round_seq + 1 || !cover.ok()) {
          last_error_ = *reply;
          round_ok = false;
          continue;
        }
        // The byte-identity cross-check: every worker replayed the same
        // prefix over the same kernels, so its running cover must match
        // ours to the last bit. A mismatch is a divergence bug, not a
        // fault to retry around.
        if (*cover != expect_cover) {
          return Status::Internal(
              "dist cover divergence at seq " +
              std::to_string(round_seq + 1) + ": worker " +
              workers_[idx].endpoint.host + ":" +
              std::to_string(workers_[idx].endpoint.port) + " reports " +
              *cover + ", coordinator has " + expect_cover);
        }
        workers_[idx].seq = round_seq + 1;
        m_commits_->Increment();
        // Stash the piggybacked next-round proposal, when present (the
        // final commit of a budget-exhausted solve carries none). A
        // malformed piggyback is not fatal — the worker just gets a
        // propose round trip next round, which re-checks everything.
        std::string_view found;
        if (kv.Get("found", &found)) {
          WorkerHandle& worker = workers_[idx];
          worker.cached_tally = EvaluatorCounters();
          auto next = ParseProposalFields(kv, &worker.cached_tally);
          if (next.ok()) {
            worker.cached_proposal = *next;
            worker.cached_seq = round_seq + 1;
          } else {
            worker.cached_proposal.reset();
          }
        }
      }
      if (!round_ok) {
        PREFCOVER_RETURN_NOT_OK(Rebalance());
        // Rebalance re-inits from the committed prefix (which includes
        // v), so re-seated workers are already past this round; the loop
        // re-checks who is still pending.
      }
    }
  }

  void DrainCounters(EvaluatorCounters* into) override {
    into->MergeFrom(&tally_);
  }

 private:
  DistributedCandidateEvaluator(const EvaluatorContext& context,
                                const DistSolveOptions& options)
      : context_(context),
        options_(options),
        digest_(GraphDigest(*context.graph)),
        opts_hash_(GreedyOptionsHash(*context.options, context.k)),
        exclude_csv_(FormatNodeCsv(context.options->force_exclude)) {
    simd_name_ = options_.simd_level.empty()
                     ? std::string(SimdLevelName(ActiveSimdLevel()))
                     : options_.simd_level;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    m_rounds_ = registry.GetCounter(dist_metric::kRounds);
    m_proposals_ = registry.GetCounter(dist_metric::kProposals);
    m_commits_ = registry.GetCounter(dist_metric::kCommits);
    m_failures_ = registry.GetCounter(dist_metric::kWorkerFailures);
    m_rebalances_ = registry.GetCounter(dist_metric::kRebalances);
    m_bytes_sent_ = registry.GetCounter(dist_metric::kBytesSent);
    m_bytes_received_ = registry.GetCounter(dist_metric::kBytesReceived);
    m_merge_seconds_ = registry.GetHistogram(dist_metric::kMergeSeconds,
                                             obs::LatencyBucketsSeconds());
  }

  Status Connect() {
    if (options_.workers.empty()) {
      return Status::InvalidArgument(
          "distributed solve needs at least one worker endpoint");
    }
    serve::IgnoreSigpipe();
    workers_.reserve(options_.workers.size());
    for (size_t i = 0; i < options_.workers.size(); ++i) {
      WorkerHandle worker;
      worker.endpoint = options_.workers[i];
      serve::ResilientClientOptions client_options = options_.client;
      client_options.host = worker.endpoint.host;
      client_options.port = worker.endpoint.port;
      client_options.jitter_seed = options_.client.jitter_seed + i;
      worker.client =
          std::make_unique<serve::ResilientClient>(client_options);
      workers_.push_back(std::move(worker));
    }
    // First seating: like a rebalance, but every init failure is fatal —
    // a fleet that cannot fully seat at the start is a config error, not
    // a mid-solve fault. Seating fans out: each worker's init builds its
    // full CoverState (O(n + edges)), so a serial loop would multiply
    // that wall time by the fleet size.
    std::vector<size_t> all = AliveIndices();
    AssignShards(all);
    std::vector<Status> seated(workers_.size(), Status::OK());
    FanOut(all, [&](size_t idx) { seated[idx] = InitWorker(&workers_[idx]); });
    for (Status& status : seated) {
      PREFCOVER_RETURN_NOT_OK(std::move(status));
    }
    return Status::OK();
  }

  /// Contiguous equal partition of [0, n) over the listed workers (in
  /// their index order; workers beyond the candidate count get an empty
  /// shard), each seeded with the per-shard capacity the in-process
  /// sharded solve uses.
  void AssignShards(const std::vector<size_t>& alive) {
    const size_t n = context_.graph->NumNodes();
    const size_t m = alive.size();
    for (size_t j = 0; j < m; ++j) {
      workers_[alive[j]].shard_begin = n * j / m;
      workers_[alive[j]].shard_end = n * (j + 1) / m;
    }
    seed_cap_ = ShardSeedCapacity(context_.options->seed_heap_capacity, m);
  }

  Status InitWorker(WorkerHandle* worker) {
    const std::string request =
        "init shard=" + std::to_string(worker->shard_begin) + ":" +
        std::to_string(worker->shard_end) +
        " variant=" + std::string(VariantName(context_.options->variant)) +
        " k=" + std::to_string(context_.k) + " simd=" + simd_name_ +
        " seed_cap=" + std::to_string(seed_cap_) +
        " digest=" + std::to_string(digest_) +
        " opts=" + std::to_string(opts_hash_) +
        " exclude=" + exclude_csv_ +
        " prefix=" + FormatNodeCsv(*context_.committed);
    PREFCOVER_ASSIGN_OR_RETURN(std::string reply,
                               CallWorker(*worker, request));
    auto args = ReplyArgs(reply, "init");
    if (!args.has_value()) {
      return Status::Internal("worker rejected init: " + reply);
    }
    const KvArgs kv(*args);
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t seq, kv.GetU64("seq"));
    PREFCOVER_ASSIGN_OR_RETURN(std::string cover, kv.GetString("cover"));
    if (seq != context_.committed->size()) {
      return Status::Internal("worker init seq mismatch: " + reply);
    }
    // Same prefix, same kernels => bit-identical running cover.
    if (cover != FormatF64(context_.state->cover())) {
      return Status::Internal(
          "worker init cover divergence: worker has " + cover +
          ", coordinator has " + FormatF64(context_.state->cover()));
    }
    worker->seq = seq;
    worker->cached_proposal.reset();
    return Status::OK();
  }

  /// Re-partitions the candidate range over the survivors and re-seats
  /// each of them from the committed prefix (checkpoint-resume over the
  /// wire). Workers that fail their re-init are dropped and the partition
  /// shrinks again; fails only when nobody is left.
  Status Rebalance() {
    for (;;) {
      std::vector<size_t> alive = AliveIndices();
      if (alive.empty()) {
        return Status::Internal(
            "distributed solve lost every worker (last: " + last_error_ +
            ")");
      }
      AssignShards(alive);
      m_rebalances_->Increment();
      PREFCOVER_LOG(Warning)
          << "dist: rebalancing " << context_.graph->NumNodes()
          << " candidate(s) over " << alive.size() << " worker(s)";
      std::vector<Status> seated(workers_.size(), Status::OK());
      FanOut(alive, [&](size_t idx) {
        seated[idx] = InitWorker(&workers_[idx]);
      });
      bool all_ok = true;
      for (size_t idx : alive) {
        if (!seated[idx].ok()) {
          MarkDead(idx, seated[idx]);
          all_ok = false;
        }
      }
      if (all_ok) return Status::OK();
    }
  }

  Result<CandidateProposal> ParseProposeReply(const std::string& reply,
                                              uint64_t expected_seq,
                                              EvaluatorCounters* tally) {
    auto args = ReplyArgs(reply, "propose");
    if (!args.has_value()) {
      return Status::FailedPrecondition("propose rejected: " + reply);
    }
    const KvArgs kv(*args);
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t seq, kv.GetU64("seq"));
    if (seq != expected_seq) {
      return Status::FailedPrecondition("propose seq mismatch: " + reply);
    }
    return ParseProposalFields(kv, tally);
  }

  /// The shared proposal key/values (`found= [node= gain=] evals= ...`),
  /// as emitted by both the `propose` reply and the `commit` piggyback.
  Result<CandidateProposal> ParseProposalFields(const KvArgs& kv,
                                                EvaluatorCounters* tally) {
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t found, kv.GetU64("found"));
    CandidateProposal proposal;
    if (found != 0) {
      PREFCOVER_ASSIGN_OR_RETURN(uint64_t node, kv.GetU64("node"));
      PREFCOVER_ASSIGN_OR_RETURN(double gain, kv.GetF64("gain"));
      proposal.found = true;
      proposal.node = static_cast<NodeId>(node);
      proposal.gain = gain;
    }
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t evals, kv.GetU64("evals"));
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t pops, kv.GetU64("pops"));
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t stale, kv.GetU64("stale"));
    PREFCOVER_ASSIGN_OR_RETURN(uint64_t refills, kv.GetU64("refills"));
    tally->gain_evaluations += evals;
    tally->heap_pops += pops;
    tally->stale_refreshes += stale;
    tally->seed_refills += refills;
    return proposal;
  }

  Result<std::string> CallWorker(WorkerHandle& worker,
                                 const std::string& request) {
    m_bytes_sent_->Increment(request.size() + 1);
    Result<std::string> reply = worker.client->Call(request);
    if (reply.ok()) m_bytes_received_->Increment(reply->size() + 1);
    return reply;
  }

  /// Runs `fn(idx)` for every index, on the pool when one is configured
  /// (each index touches a distinct worker, so the tasks are
  /// independent), serially otherwise.
  template <typename Fn>
  void FanOut(const std::vector<size_t>& indices, Fn&& fn) {
    if (options_.pool == nullptr || indices.size() < 2) {
      for (size_t idx : indices) fn(idx);
      return;
    }
    for (size_t idx : indices) {
      options_.pool->Submit([&fn, idx] { fn(idx); });
    }
    options_.pool->WaitIdle();
  }

  std::vector<size_t> AliveIndices() const {
    std::vector<size_t> alive;
    for (size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i].alive) alive.push_back(i);
    }
    return alive;
  }

  void MarkDead(size_t idx, const Status& cause) {
    PREFCOVER_LOG(Warning)
        << "dist: worker " << workers_[idx].endpoint.host << ":"
        << workers_[idx].endpoint.port
        << " declared dead: " << cause.ToString();
    workers_[idx].alive = false;
    last_error_ = cause.ToString();
    m_failures_->Increment();
  }

  EvaluatorContext context_;
  DistSolveOptions options_;
  const uint64_t digest_;
  const uint64_t opts_hash_;
  const std::string exclude_csv_;
  std::string simd_name_;
  std::vector<WorkerHandle> workers_;
  size_t seed_cap_ = 0;  // per-shard seed capacity of the current partition
  EvaluatorCounters tally_;
  std::string last_error_ = "no failures recorded";

  obs::Counter* m_rounds_;
  obs::Counter* m_proposals_;
  obs::Counter* m_commits_;
  obs::Counter* m_failures_;
  obs::Counter* m_rebalances_;
  obs::Counter* m_bytes_sent_;
  obs::Counter* m_bytes_received_;
  obs::Histogram* m_merge_seconds_;
};

}  // namespace

CandidateEvaluatorFactory MakeDistributedEvaluatorFactory(
    const DistSolveOptions& dist_options) {
  return [dist_options](const EvaluatorContext& context) {
    return DistributedCandidateEvaluator::Create(context, dist_options);
  };
}

Result<Solution> SolveGreedyDistributed(
    const PreferenceGraph& graph, size_t k, const GreedyOptions& options,
    const DistSolveOptions& dist_options) {
  return SolveGreedyWithEvaluator(graph, k, options,
                                  MakeDistributedEvaluatorFactory(
                                      dist_options),
                                  "greedy-dist");
}

}  // namespace dist
}  // namespace prefcover

#endif  // __unix__ || __APPLE__
