#include "util/parallel_for.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "obs/trace.h"

namespace prefcover {

void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (begin >= end) return;
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
      {
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
                 const std::function<void(size_t)>& body) {
  ParallelForChunked(pool, begin, end,
                     [&body](size_t lo, size_t hi, size_t /*worker*/) {
                       for (size_t i = lo; i < hi; ++i) body(i);
                     });
}

}  // namespace prefcover
