#include "core/candidate_evaluator.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"

namespace prefcover {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Collect-and-compact top-cap selection shared by both seed walks:
// candidates above the running threshold are appended to a 2*cap buffer
// cut back to the exact top `cap` (nth_element by pair order) whenever it
// fills — O(1) amortized per survivor instead of a push_heap. (key, id)
// pairs are unique, so the kept set does not depend on nth_element's
// implementation, nor on the order candidates are offered in.
class SeedKeeper {
 public:
  SeedKeeper(size_t cap, uint32_t round) : cap_(cap), round_(round) {
    keep_.reserve(2 * cap);
  }

  /// The last compact's cut: a lower bound on the running exact
  /// threshold (-inf until the first compact), so a walk that stops once
  /// every remaining bound is below it can only visit extra candidates,
  /// never skip a needed one.
  double cut() const { return theta_.gain; }

  void Offer(double key, NodeId v) {
    ++visited_;
    if (key < theta_.gain || (key == theta_.gain && v > theta_.node)) return;
    keep_.push_back({key, v, round_});
    if (keep_.size() == 2 * cap_) Compact();
  }

  // Candidates below the cut — compacted away or never visited — exist
  // exactly when more were visited than kept: a walk's early exit needs
  // a compact, and a compact needs 2*cap visited candidates.
  CelfSeededHeap Finish() {
    if (keep_.size() > cap_) Compact();
    CelfSeededHeap out;
    out.truncated = visited_ > keep_.size();
    if (out.truncated) out.theta = theta_;
    out.heap = CelfHeap(CelfWorse(), std::move(keep_));
    return out;
  }

 private:
  void Compact() {
    std::nth_element(keep_.begin(),
                     keep_.begin() + static_cast<ptrdiff_t>(cap_ - 1),
                     keep_.end(),
                     [](const CelfHeapEntry& a, const CelfHeapEntry& b) {
                       return CelfWorse()(b, a);
                     });
    keep_.resize(cap_);
    theta_ = keep_[cap_ - 1];
  }

  size_t cap_;
  uint32_t round_;
  std::vector<CelfHeapEntry> keep_;
  CelfHeapEntry theta_{kNegInf, 0, 0};
  size_t visited_ = 0;
};

}  // namespace

size_t ShardSeedCapacity(size_t seed_heap_capacity, size_t shards) {
  const size_t cap = seed_heap_capacity > 0 ? seed_heap_capacity
                                            : kDefaultSeedHeapCapacity;
  shards = std::max<size_t>(shards, 1);
  return cap / shards + (cap % shards != 0 ? 1 : 0);
}

CelfShardEngine::CelfShardEngine(const CoverState* state,
                                 const Bitset* excluded,
                                 const Config& config)
    : state_(state),
      excluded_(excluded),
      shard_end_(std::min(config.shard_end, state->graph().NumNodes())),
      costs_(config.costs),
      seed_order_(config.seed_order.empty()
                      ? state->graph().NodesByStaticGainBound()
                      : config.seed_order),
      filter_(config.filter) {
  shard_begin_ = std::min(config.shard_begin, shard_end_);
  const size_t cap = config.seed_heap_capacity > 0
                         ? config.seed_heap_capacity
                         : kDefaultSeedHeapCapacity;
  seed_cap_ = std::max<size_t>(1, std::min(cap, shard_end_ - shard_begin_));
}

void CelfShardEngine::Reseed() {
  obs::Span seed_span("solver.init_heap", "solver");
  seed_span.Arg("n", static_cast<uint64_t>(shard_end_ - shard_begin_));
  SeedKeeper keeper(seed_cap_, round_);
  if (shard_begin_ == shard_end_) {
    // An empty shard has nothing to seed (and nothing to walk for).
  } else if (state_->simd_level() != SimdLevel::kScalar) {
    const std::span<const double> bounds =
        state_->graph().StaticGainBounds();
    const Bitset& retained = state_->retained();
    for (const NodeId v : seed_order_) {
      // Strict: a bound that ties the cut can still hide a key that ties
      // it with a smaller id, which would outrank it in pair order.
      if (Key(v, bounds[v]) < keeper.cut()) break;
      if (v < shard_begin_ || v >= shard_end_) continue;
      if (retained.Test(v) || excluded_->Test(v) || !Admissible(v)) continue;
      ++counters_.gain_evaluations;
      keeper.Offer(Key(v, state_->GainOf(v)), v);
    }
  } else {
    // Scalar tier: one batch gain sweep over the shard. The buffer is
    // indexed by absolute node id (GainsInto's contract), so it spans
    // [0, shard_end_) even for a tail shard; allocated once and reused
    // across refills.
    if (gains_.empty()) gains_.resize(shard_end_);
    state_->GainsInto(shard_begin_, shard_end_, gains_);
    ForEachCandidateInRange(state_->retained(), *excluded_, shard_begin_,
                            shard_end_, [&](NodeId v) {
                              if (!Admissible(v)) return;
                              ++counters_.gain_evaluations;
                              keeper.Offer(Key(v, gains_[v]), v);
                            });
  }
  seeded_ = keeper.Finish();
}

CandidateProposal CelfShardEngine::Propose() {
  if (pending_.has_value()) {
    return {true, pending_->gain, pending_->node};
  }
  if (!seeded_once_) {
    seeded_once_ = true;
    Reseed();
  }
  CelfHeap& heap = seeded_.heap;
  for (;;) {
    if (heap.empty()) {
      if (!seeded_.truncated) return CandidateProposal{};  // exhausted
      // The kept pool drained; pull the cut candidates back in.
      ++counters_.seed_refills;
      Reseed();
      continue;
    }
    CelfHeapEntry top = heap.top();
    heap.pop();
    ++counters_.heap_pops;
    // Inadmissibility is permanent, so dead entries are dropped.
    if (state_->IsRetained(top.node) || !Admissible(top.node)) continue;
    if (top.round != round_) {
      // Submodularity: the true key can only be <= the stale value, so
      // after refreshing, re-inserting preserves heap correctness.
      top.gain = Key(top.node, state_->GainOf(top.node));
      top.round = round_;
      ++counters_.gain_evaluations;
      ++counters_.stale_refreshes;
      heap.push(top);
      continue;
    }
    if (seeded_.truncated && CelfWorse()(top, seeded_.theta)) {
      // The fresh front fell below the seed cut: a cut candidate may now
      // be the true argmax. Rebuild from a fresh sweep (top's node is
      // still a candidate, so the rebuild re-covers it).
      ++counters_.seed_refills;
      Reseed();
      continue;
    }
    // A fresh top dominates every other entry's stored key, and stored
    // keys upper-bound true keys, so this is exactly the shard's
    // plain-greedy argmax. Held out of the heap until OnCommitted.
    pending_ = top;
    return {true, top.gain, top.node};
  }
}

void CelfShardEngine::OnCommitted(NodeId winner) {
  if (pending_.has_value()) {
    if (pending_->node != winner) {
      // A remote shard won the round: recycle the held proposal. Its
      // round tag predates the commit, so it re-enters as a stale upper
      // bound and gets refreshed before it can win again.
      seeded_.heap.push(*pending_);
    }
    pending_.reset();
  }
  ++round_;
}

}  // namespace prefcover
