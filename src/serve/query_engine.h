// Query engine: an atomically swappable ServingIndex snapshot plus the
// request counters.
//
// Answer runs on the caller's thread: it takes the current snapshot,
// calls AnswerOnIndex and counts the request. Every session thread (the
// stdin loop, one thread per TCP connection) calls it concurrently. Each
// answer comes from one complete index; a reload between two lines of
// one session is allowed.
//
// Hot reload: SwapIndex publishes a new index by swapping a mutex-guarded
// shared_ptr (the critical section is a pointer copy, so readers never
// wait meaningfully). An Answer in progress keeps the snapshot it took;
// later ones see the new index.
//
// Observability (all in MetricsRegistry::Global; catalog in
// OBSERVABILITY.md): serve.requests, serve.latency_us histogram (service
// time of one Answer), serve.index_reloads, plus a "serve.reload_swap"
// span per swap.
// Failpoint: `serve.reload_swap` fires inside SwapIndex before the swap.

#ifndef PREFCOVER_SERVE_QUERY_ENGINE_H_
#define PREFCOVER_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/serving_index.h"
#include "util/status.h"

namespace prefcover {
namespace serve {

/// \brief The engine has no knobs; this empty struct keeps the
/// two-argument constructor that existing callers use.
struct QueryEngineOptions {};

/// \brief Point-in-time engine counters (for the `stats` control verb).
struct QueryEngineStats {
  uint64_t requests = 0;
  uint64_t index_reloads = 0;
};

/// \brief Serving engine over an atomically swappable index.
class QueryEngine {
 public:
  QueryEngine(std::shared_ptr<const ServingIndex> index,
              QueryEngineOptions options = QueryEngineOptions());

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers `request` against the current index snapshot on the calling
  /// thread. Safe to call from any number of threads at once.
  Response Answer(const Request& request);

  /// Atomically replaces the served index. Answers in progress finish on
  /// the snapshot they took. Failpoint `serve.reload_swap` can inject an
  /// error before the swap.
  Status SwapIndex(std::shared_ptr<const ServingIndex> index);

  /// The currently served index snapshot.
  std::shared_ptr<const ServingIndex> index() const;

  /// Counters since construction (reads the engine's own tallies, not the
  /// global registry, so concurrent engines don't bleed together).
  QueryEngineStats Stats() const;

 private:
  // Global instruments, resolved once (names in OBSERVABILITY.md).
  obs::Counter* requests_total_;
  obs::Counter* index_reloads_;
  obs::Histogram* latency_us_hist_;

  // Engine-local tallies behind Stats().
  std::atomic<uint64_t> n_requests_{0};
  std::atomic<uint64_t> n_index_reloads_{0};

  // Published index snapshot. Guarded by its own mutex rather than
  // std::atomic<shared_ptr>: the critical section is a pointer copy, and
  // libstdc++ 12's _Sp_atomic unlocks its spinlock with relaxed ordering,
  // which TSan (correctly, per the memory model) reports as a race
  // between store() and load().
  mutable std::mutex index_mu_;
  std::shared_ptr<const ServingIndex> index_;
};

/// \brief Absolute steady-clock "now" in nanoseconds, the clock
/// serve.latency_us is measured on.
int64_t SteadyNowNanos();

}  // namespace serve
}  // namespace prefcover

#endif  // PREFCOVER_SERVE_QUERY_ENGINE_H_
