#include "util/parallel_for.h"

#include <limits>
#include <vector>

#include "obs/trace.h"

namespace prefcover {

void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body,
    const CancelToken* cancel) {
  if (begin >= end) return;
  if (cancel != nullptr && cancel->IsCancelled()) return;
  const size_t n = end - begin;
  const size_t num_workers = pool == nullptr ? 1 : pool->num_threads();
  if (num_workers <= 1 || n == 1) {
    body(begin, end, 0);
    return;
  }
  const size_t num_chunks = n < num_workers ? n : num_workers;
  obs::Span dispatch_span("pool.parallel_for", "pool");
  dispatch_span.Arg("items", static_cast<uint64_t>(n));
  dispatch_span.Arg("chunks", static_cast<uint64_t>(num_chunks));
  const size_t base = n / num_chunks;
  const size_t extra = n % num_chunks;

  std::mutex mu;
  std::condition_variable done_cv;
  size_t remaining = num_chunks;

  size_t chunk_begin = begin;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t chunk_size = base + (c < extra ? 1 : 0);
    const size_t chunk_end = chunk_begin + chunk_size;
    pool->Submit([&, chunk_begin, chunk_end, c] {
      // Cooperative cancellation: a chunk that has not started when the
      // token trips is skipped whole; a started chunk always completes.
      if (cancel == nullptr || !cancel->IsCancelled()) {
        obs::Span chunk_span("pool.chunk", "pool");
        chunk_span.Arg("lo", static_cast<uint64_t>(chunk_begin));
        chunk_span.Arg("hi", static_cast<uint64_t>(chunk_end));
        body(chunk_begin, chunk_end, c);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_one();
    });
    chunk_begin = chunk_end;
  }
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body,
                 const CancelToken* cancel) {
  ParallelForChunked(
      pool, begin, end,
      [&body](size_t lo, size_t hi, size_t /*worker*/) {
        for (size_t i = lo; i < hi; ++i) body(i);
      },
      cancel);
}

size_t ParallelArgMax(ThreadPool* pool, size_t n,
                      const std::function<double(size_t)>& score,
                      double* best_score, const CancelToken* cancel) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const size_t num_workers = pool == nullptr ? 1 : pool->num_threads();
  const size_t num_slots = num_workers < n ? num_workers : (n > 0 ? n : 1);
  std::vector<double> local_best(num_slots, kNegInf);
  std::vector<size_t> local_arg(num_slots, n);

  ParallelForChunked(pool, 0, n,
                     [&](size_t lo, size_t hi, size_t worker) {
                       double best = kNegInf;
                       size_t arg = n;
                       for (size_t i = lo; i < hi; ++i) {
                         double s = score(i);
                         if (s > best) {
                           best = s;
                           arg = i;
                         }
                       }
                       local_best[worker] = best;
                       local_arg[worker] = arg;
                     },
                     cancel);

  double best = kNegInf;
  size_t arg = n;
  for (size_t w = 0; w < num_slots; ++w) {
    // Chunks are contiguous and ascending, so the first strictly-better
    // slot wins and ties resolve to the smaller index.
    if (local_arg[w] != n && local_best[w] > best) {
      best = local_best[w];
      arg = local_arg[w];
    }
  }
  if (best_score != nullptr) *best_score = best;
  return arg;
}

}  // namespace prefcover
