// Blocking data-parallel loop over an index range.
//
// ParallelFor partitions [begin, end) into contiguous chunks, one batch per
// worker, and blocks until all complete. This is the exact parallelization
// the paper describes for the greedy solver: per-iteration candidate gain
// scans are independent and are evaluated concurrently.

#ifndef PREFCOVER_UTIL_PARALLEL_FOR_H_
#define PREFCOVER_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace prefcover {

/// \brief Runs `body(chunk_begin, chunk_end, worker_index)` over a partition
/// of [begin, end) using `pool`. Blocks until all chunks complete.
///
/// `worker_index` is in [0, num_chunks) and is distinct per chunk, so the
/// body may accumulate into per-worker slots without synchronization.
/// If `pool` is nullptr the loop runs inline as a single chunk.
void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body);

/// \brief Element-wise convenience wrapper: `body(i)` for i in [begin, end).
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_PARALLEL_FOR_H_
