#include "core/candidate_evaluator.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace prefcover {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Collect-and-compact top-cap selection shared by the walk and the sweep:
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

CelfShardEngine::CelfShardEngine(const CoverState* state,
                                 const Bitset* excluded,
                                 const Config& config)
    : state_(state),
      excluded_(excluded),
      shard_end_(std::min(config.shard_end, state->graph().NumNodes())),
      costs_(config.costs),
      min_cost_(costs_.empty() ? 1.0 : std::ranges::min(costs_)),
      filter_(config.filter),
      pool_(config.pool) {
  shard_begin_ = std::min(config.shard_begin, shard_end_);
  const size_t cap = config.seed_heap_capacity > 0
                         ? config.seed_heap_capacity
                         : kDefaultSeedHeapCapacity;
  seed_cap_ = std::max<size_t>(1, std::min(cap, shard_end_ - shard_begin_));
}

void CelfShardEngine::Reseed() {
  const size_t shard_size = shard_end_ - shard_begin_;
  obs::Span seed_span("solver.init_heap", "solver");
  seed_span.Arg("n", static_cast<uint64_t>(shard_size));
  SeedKeeper keeper(seed_cap_, round_);
  if (seed_cap_ < shard_size) {  // the seed can cut: walk the bound order
    const PreferenceGraph& graph = state_->graph();
    const std::span<const double> bounds = graph.StaticGainBounds();
    const Bitset& retained = state_->retained();
    for (const NodeId v : graph.NodesByStaticGainBound()) {
      // Strict: a bound that ties the cut can still hide a key that ties
      // it with a smaller id, which would outrank it in pair order.
      if (bounds[v] / min_cost_ < keeper.cut()) break;
      if (v < shard_begin_ || v >= shard_end_) continue;
      if (retained.Test(v) || excluded_->Test(v) || !Admissible(v)) continue;
      ++counters_.gain_evaluations;
      keeper.Offer(Key(v, state_->GainOf(v)), v);
    }
  } else if (shard_size > 0) {
    // The seed keeps every candidate, so its cut stays -inf and no walk
    // could stop early: sweep in id order. The buffer is indexed by node
    // id (GainsInto's contract), so it spans [0, shard_end_).
    if (gains_.empty()) gains_.resize(shard_end_);
    ParallelForChunked(pool_, shard_begin_, shard_end_,
                       [this](size_t lo, size_t hi, size_t) {
                         state_->GainsInto(lo, hi, gains_);
                       });
    if (pool_ != nullptr) {
      ++counters_.parallel_batches;
      counters_.parallel_items += shard_size;
    }
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
  double bound = 0.0;
  const std::span<const CelfHeapEntry> top = ProposeTop(1, &bound);
  if (top.empty()) return CandidateProposal{};  // exhausted
  return {true, top.front().gain, top.front().node};
}

std::span<const CelfHeapEntry> CelfShardEngine::ProposeTop(size_t depth,
                                                           double* bound) {
  if (!seeded_once_) {
    seeded_once_ = true;
    Reseed();
  }
  CelfHeap& heap = seeded_.heap;
  while (held_.size() < depth) {
    if (heap.empty()) {
      if (!seeded_.truncated || !held_.empty()) break;  // exhausted
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
      // outrank it. With proposals held, stop (a reseed would re-add
      // them); otherwise rebuild from a fresh sweep (top's node is still
      // a candidate, so the rebuild re-covers it).
      if (!held_.empty()) {
        heap.push(top);
        break;
      }
      ++counters_.seed_refills;
      Reseed();
      continue;
    }
    // A fresh top dominates every other entry's stored key, and stored
    // keys upper-bound true keys, so this is exactly the shard's next
    // plain-greedy candidate. Held out of the heap until OnCommitted.
    held_.push_back(top);
  }
  *bound = heap.empty() ? kNegInf : heap.top().gain;
  if (seeded_.truncated) *bound = std::max(*bound, seeded_.theta.gain);
  return held_;
}

void CelfShardEngine::OnCommitted([[maybe_unused]] NodeId winner) {
  PREFCOVER_DCHECK(state_->IsRetained(winner));
  for (const CelfHeapEntry& entry : held_) {
    // A held proposal that lost the round re-enters with a round tag that
    // predates the commit, so it is a stale upper bound and gets
    // refreshed before it can win again.
    if (!state_->IsRetained(entry.node)) seeded_.heap.push(entry);
  }
  held_.clear();
  ++round_;
}

}  // namespace prefcover
