// Blocking data-parallel loop over an index range.
//
// ParallelFor partitions [begin, end) into contiguous chunks, one batch per
// worker, and blocks until all complete. This is the exact parallelization
// the paper describes for the greedy solver: per-iteration candidate gain
// scans are independent and are evaluated concurrently.

#ifndef PREFCOVER_UTIL_PARALLEL_FOR_H_
#define PREFCOVER_UTIL_PARALLEL_FOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace prefcover {

/// \brief Runs `body(chunk_begin, chunk_end, worker_index)` over a partition
/// of [begin, end) using `pool`. Blocks until all chunks complete.
///
/// `worker_index` is in [0, num_chunks) and is distinct per chunk, so the
/// body may accumulate into per-worker slots without synchronization.
/// If `pool` is nullptr the loop runs inline as a single chunk.
///
/// Cancellation is cooperative and chunk-granular: when `cancel` is non-null
/// and trips, chunks that have not *started* are skipped entirely (a running
/// chunk always finishes — no mid-task aborts). The call still blocks until
/// every chunk has started-and-finished or been skipped. Skipped chunks
/// leave their outputs untouched, so after a cancelled call the results are
/// INCOMPLETE — the caller must re-check the token and discard them.
void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body,
    const CancelToken* cancel = nullptr);

/// \brief Element-wise convenience wrapper: `body(i)` for i in [begin, end).
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body,
                 const CancelToken* cancel = nullptr);

/// \brief Parallel argmax-by-score over [0, n).
///
/// `score(i)` returns the candidate's value; elements with score equal to
/// -infinity are skipped. Ties break toward the smaller index, matching the
/// deterministic tie-break rule used by every solver. Returns n if every
/// element was skipped — including when `cancel` tripped before any chunk
/// scored (cancelled calls may return an argmax over a subset; re-check the
/// token before trusting the result).
size_t ParallelArgMax(ThreadPool* pool, size_t n,
                      const std::function<double(size_t)>& score,
                      double* best_score,
                      const CancelToken* cancel = nullptr);

/// \brief Batched variant of ParallelArgMax over an explicit candidate
/// list.
///
/// Evaluates `score(candidates[j])` for every j concurrently. If `scores`
/// is non-null it is resized to `candidates.size()` and receives every
/// evaluated score, so the caller can reinsert refreshed heap entries.
///
/// Returns the *position* j of the best candidate, or `candidates.size()`
/// when the list is empty or every score is -infinity. Ties break toward
/// the smaller candidate *value* (not position) — candidates may arrive in
/// arbitrary (e.g. heap-pop) order, and the solvers' deterministic rule is
/// "smaller node id wins", independent of evaluation order or thread
/// count.
size_t ParallelArgMaxBatch(ThreadPool* pool,
                           const std::vector<size_t>& candidates,
                           const std::function<double(size_t)>& score,
                           std::vector<double>* scores,
                           double* best_score,
                           const CancelToken* cancel = nullptr);

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_PARALLEL_FOR_H_
