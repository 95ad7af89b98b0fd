// The round-scoped candidate-evaluation interface the greedy driver loop
// (SolveGreedyWithEvaluator, core/greedy_solver.h) solves against, plus
// the one CELF engine every lazy execution runs:
//
//   - the scan evaluator (SolveGreedy / SolveGreedyParallel): every round
//     computes every candidate's exact gain, in chunks on an optional
//     pool;
//   - the CELF evaluator (SolveGreedyLazy / SolveGreedyLazyParallel): N
//     CelfShardEngines over contiguous shards, one pool dispatch per
//     round;
//   - the constrained evaluator (SolveConstrainedCover): one
//     CelfShardEngine keyed by gain/cost with an admissibility filter;
//   - DistributedCandidateEvaluator (src/dist/distributed_solver.h): the
//     coordinator side of the multi-process sharded solve, where each
//     worker process runs a CelfShardEngine over its shard.
//
// The contract is deliberately tiny — one exact argmax per round, one
// commit per selection — because that is all Algorithm 1 needs:
//
//   BestCandidate()   the exact (gain, id)-argmax over every live
//                     candidate, with ties broken toward the smaller id
//                     (the canonical tie-break every execution shares).
//                     Must be exact, not approximate: byte-identity
//                     across executions rests on every evaluator
//                     returning the plain-greedy argmax.
//   CommitWinner(v)   called after the driver applied AddNode(v) to the
//                     shared CoverState; the evaluator updates its own
//                     bookkeeping (heap round, remote shard residuals).
//
// Shard decomposition (the GreeDIMM argument): candidates are partitioned
// across engines, every engine sees the full residual state, and the max
// over per-shard exact argmaxes (BetterProposal) is the global exact
// argmax. The greedy selection sequence — and therefore the (1 - 1/e)
// guarantee — survives the decomposition unchanged.

#ifndef PREFCOVER_CORE_CANDIDATE_EVALUATOR_H_
#define PREFCOVER_CORE_CANDIDATE_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "core/cover_state.h"
#include "core/solver_stats.h"
#include "graph/preference_graph.h"
#include "util/bitset.h"
#include "util/status.h"

namespace prefcover {

struct GreedyOptions;  // core/greedy_solver.h

/// \brief One round's winning candidate. `found == false` means the
/// evaluator has no live candidate left (every node retained/excluded).
/// `gain` is the engine's key: the marginal gain, or gain/cost for a
/// cost-keyed engine.
struct CandidateProposal {
  bool found = false;
  double gain = 0.0;
  NodeId node = kInvalidNode;
};

/// \brief The GreeDIMM merge: true when `a` beats `b` — found, larger
/// gain, ties toward the smaller id. Folding a shard's proposals with it
/// in any order yields the global exact argmax.
inline bool BetterProposal(const CandidateProposal& a,
                           const CandidateProposal& b) {
  if (!a.found) return false;
  if (!b.found) return true;
  if (a.gain != b.gain) return a.gain > b.gain;
  return a.node < b.node;
}

/// \brief Work tallies an evaluator accumulates between driver drains
/// (the driver folds them into the run-scoped solver.* counters once per
/// round, keeping the inner loops free of sharded-counter traffic).
struct EvaluatorCounters {
  uint64_t gain_evaluations = 0;
  uint64_t heap_pops = 0;
  uint64_t stale_refreshes = 0;
  uint64_t seed_refills = 0;
  /// Pool dispatches and the work items they carried.
  uint64_t parallel_batches = 0;
  uint64_t parallel_items = 0;

  void MergeFrom(EvaluatorCounters* other) {
    gain_evaluations += other->gain_evaluations;
    heap_pops += other->heap_pops;
    stale_refreshes += other->stale_refreshes;
    seed_refills += other->seed_refills;
    parallel_batches += other->parallel_batches;
    parallel_items += other->parallel_items;
    *other = EvaluatorCounters();
  }
};

/// \brief Everything the driver hands an evaluator factory: the shared
/// cover state (already seeded with any force-include / resume prefix),
/// the exclusion mask, and the prefix that produced that state.
struct EvaluatorContext {
  const PreferenceGraph* graph = nullptr;
  /// Driver-owned; the driver applies every AddNode. Evaluators read
  /// gains/residuals from it and must not mutate it.
  CoverState* state = nullptr;
  const Bitset* excluded = nullptr;
  /// Items already committed (force_include or checkpoint resume), in
  /// selection order. The factory runs after the driver replayed them.
  const std::vector<NodeId>* committed = nullptr;
  size_t k = 0;
  const GreedyOptions* options = nullptr;
};

/// \brief Round-scoped candidate evaluation: the interface every greedy
/// execution implements.
class CandidateEvaluator {
 public:
  virtual ~CandidateEvaluator() = default;

  /// The exact argmax over all live candidates for the current round.
  /// Stable under repetition: calling twice without an intervening
  /// CommitWinner returns the same proposal.
  virtual Result<CandidateProposal> BestCandidate() = 0;

  /// Advances to the next round after the driver applied `v` to the
  /// shared CoverState. `v` is the proposal BestCandidate returned.
  virtual Status CommitWinner(NodeId v) = 0;

  /// Moves accumulated work tallies into `*into` (resets the internal
  /// tallies). Called by the driver once per selection round.
  virtual void DrainCounters(EvaluatorCounters* into) { (void)into; }

  /// End-of-run hook: lets an evaluator fold execution-wide telemetry
  /// (the pool width, the distributed workers' counters) into the
  /// solution stats.
  virtual Status Finish(SolverStats* stats) {
    (void)stats;
    return Status::OK();
  }
};

// --- The CELF engine ----------------------------------------------------

/// \brief Lazy-greedy heap entry: a (key, node) pair tagged with the
/// selection round the key was computed in; entries from earlier rounds
/// are stale upper bounds (submodularity) and are refreshed before they
/// can win. The key is the gain, or gain/cost for a cost-keyed engine.
struct CelfHeapEntry {
  double gain;
  NodeId node;
  uint32_t round;
};

/// \brief Heap order: larger key first, ties toward the smaller id —
/// exactly the plain greedy scan's strict-> tie-break.
struct CelfWorse {
  bool operator()(const CelfHeapEntry& a, const CelfHeapEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

using CelfHeap = std::priority_queue<CelfHeapEntry,
                                     std::vector<CelfHeapEntry>, CelfWorse>;

/// \brief A threshold-seeded CELF heap: the exact top-`cap` candidates by
/// (key, id) order plus the cut threshold theta (the worst kept entry)
/// when candidates were cut. While the selection front stays at or above
/// theta the cut pool cannot hold the argmax; the moment it might, the
/// engine refills.
struct CelfSeededHeap {
  CelfHeap heap;
  CelfHeapEntry theta{0.0, 0, 0};
  bool truncated = false;
};

/// \brief Visits every node in [begin, end) that is neither retained nor
/// excluded, in increasing id order, testing 64 nodes per word load.
/// The enumeration order is load-bearing: the plain scan's strict->
/// tie-break depends on it.
template <typename Fn>
void ForEachCandidateInRange(const Bitset& retained, const Bitset& excluded,
                             size_t begin, size_t end, Fn&& fn) {
  const size_t first_word = begin / Bitset::kWordBits;
  const size_t last_word = (end + Bitset::kWordBits - 1) / Bitset::kWordBits;
  for (size_t w = first_word; w < last_word; ++w) {
    uint64_t live = ~(retained.WordAt(w) | excluded.WordAt(w));
    const size_t base = w * Bitset::kWordBits;
    if (base < begin) {  // clip the partial first word
      live &= ~0ULL << (begin - base);
    }
    if (end - base < Bitset::kWordBits) {  // clip past end (+ ghost bits)
      live &= (1ULL << (end - base)) - 1;
    }
    if (live == ~0ULL) {
      // Full word (the common case before many selections): skip the
      // bit-extraction dance entirely.
      for (size_t b = 0; b < Bitset::kWordBits; ++b) {
        fn(static_cast<NodeId>(base + b));
      }
      continue;
    }
    while (live != 0) {
      const int b = __builtin_ctzll(live);
      live &= live - 1;
      fn(static_cast<NodeId>(base + static_cast<size_t>(b)));
    }
  }
}

/// \brief Which candidates a CelfShardEngine may propose beyond "not
/// retained, not excluded" (the constrained solve's budget and quota
/// room). Must be monotone: a candidate that turns inadmissible stays so
/// for the rest of the solve, so the engine drops it for good.
class CandidateFilter {
 public:
  virtual ~CandidateFilter() = default;
  virtual bool Admissible(NodeId v) const = 0;
};

/// \brief The default seed-heap capacity T (GreedyOptions::
/// seed_heap_capacity == 0).
inline constexpr size_t kDefaultSeedHeapCapacity = 1024;

/// \brief Per-shard seed capacity when `shards` engines split the
/// candidate range: ceil(T / shards), where T is `seed_heap_capacity`
/// (0 = the default). The one rule the in-process CELF evaluator and the
/// distributed coordinator share; T = n stays exhaustive, since no shard
/// is larger than ceil(n / shards).
size_t ShardSeedCapacity(size_t seed_heap_capacity, size_t shards);

/// \brief Lazy CELF over one contiguous candidate shard [begin, end): the
/// engine of every lazy execution — in-process (one engine, or one per
/// pool thread), constrained (cost-keyed, filtered) and distributed (one
/// per worker process).
///
/// Propose() settles the heap top to freshness and returns the shard's
/// exact (key, id)-argmax against the current CoverState — without
/// consuming it, so a proposal that loses the global merge stays
/// available. OnCommitted(winner) must be called for *every* committed
/// selection (any shard's): the caller has already applied AddNode, so
/// the engine only advances its round (stored keys become stale upper
/// bounds) and recycles the held proposal.
///
/// Seeding. Kernel tiers walk `seed_order` (descending bound(v)/cost(v))
/// evaluating exact keys and stop once every remaining bound is below the
/// running cut — Gain(v) <= bound(v) against any retained set, so the
/// early exit is exact. The scalar tier is the literal reference: one
/// batch gain sweep over the shard. Both keep the exact top
/// `seed_heap_capacity` candidates by (key, id), so every tier selects
/// identical node sequences; the seed is truncated when it visited more
/// candidates than it kept.
class CelfShardEngine {
 public:
  struct Config {
    size_t shard_begin = 0;
    size_t shard_end = 0;  // exclusive
    /// Seed-heap capacity T (0 = kDefaultSeedHeapCapacity), clamped to
    /// the shard size. Purely a performance knob — the proposal sequence
    /// is identical for every value.
    size_t seed_heap_capacity = 0;
    /// Per-node costs; empty = unit costs. The heap key is gain / cost.
    std::span<const double> costs;
    /// The bounded seed's walk order, which must be descending by
    /// bound(v) / cost(v); empty = the graph's static-bound order.
    std::span<const NodeId> seed_order;
    /// Extra admissibility test; nullptr = none.
    const CandidateFilter* filter = nullptr;
  };

  /// `state`, `excluded` and everything `config` points to must outlive
  /// the engine. The state may already contain committed selections
  /// (force_include / resume); the seed is built against it on the first
  /// Propose().
  CelfShardEngine(const CoverState* state, const Bitset* excluded,
                  const Config& config);

  /// The shard's exact argmax for the current round (found == false when
  /// the shard has no live candidate). Repeatable until OnCommitted.
  CandidateProposal Propose();

  /// Advances past a committed selection. `winner` may belong to any
  /// shard; the caller has already applied CoverState::AddNode(winner).
  void OnCommitted(NodeId winner);

  void DrainCounters(EvaluatorCounters* into) { into->MergeFrom(&counters_); }

 private:
  void Reseed();
  double Key(NodeId v, double gain) const {
    return costs_.empty() ? gain : gain / costs_[v];
  }
  bool Admissible(NodeId v) const {
    return filter_ == nullptr || filter_->Admissible(v);
  }

  const CoverState* state_;
  const Bitset* excluded_;
  size_t shard_begin_;
  size_t shard_end_;
  size_t seed_cap_;
  std::span<const double> costs_;
  std::span<const NodeId> seed_order_;
  const CandidateFilter* filter_;

  CelfSeededHeap seeded_;
  bool seeded_once_ = false;
  uint32_t round_ = 0;
  /// The settled proposal for the current round, held out of the heap
  /// until OnCommitted decides its fate (winner: dropped; loser:
  /// reinserted, becoming a stale upper bound for the next round).
  std::optional<CelfHeapEntry> pending_;
  /// Scalar-tier seed scratch (gains indexed by node id; sized to
  /// shard_end_ on first use).
  std::vector<double> gains_;

  EvaluatorCounters counters_;
};

}  // namespace prefcover

#endif  // PREFCOVER_CORE_CANDIDATE_EVALUATOR_H_
