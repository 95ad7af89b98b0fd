// The serving half of the end-to-end benchmark: an in-process query
// server built from the calls `prefcover serve --port` makes, and a
// one-thread TCP load generator that drives it over 3 query connections
// and 1 control connection.
//
// Open loop: requests arrive as a Poisson process at the given rate, as
// from independent users, whether or not earlier ones were answered; a
// request's latency runs from its arrival (not its send) to the moment
// its response line is read, so a stall also charges the requests queued
// behind it. Responses are matched FIFO per
// connection, because a session answers its lines in order. The generator
// records how late it sent each request. Every 16th answer is compared
// byte for byte with AnswerOnIndex on the benchmark's own copy of the
// index.

#ifndef PREFCOVER_BENCH_E2E_SERVE_LOAD_H_
#define PREFCOVER_BENCH_E2E_SERVE_LOAD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "serve/transport.h"
#include "span_log.h"
#include "util/random.h"
#include "util/status.h"

namespace prefcover {
namespace e2e {

/// \brief Query request lines over the index's items: item popularity is
/// Zipf(`zipf_s`) over a seeded permutation of the items (0 = uniform);
/// the mix is 80% `subs <id> 4`, 15% `covered <id>`, 5% `coverk <k>`.
std::vector<std::string> MakeRequestLines(const serve::ServingIndex& index,
                                          double zipf_s, size_t count,
                                          uint64_t seed);

/// \brief QueryEngine with the CLI's default options behind a loopback
/// listener, one thread per accepted connection running
/// ServeConnectionLoop. Clients must disconnect before Stop().
class QueryServer {
 public:
  QueryServer() = default;
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Status Start(std::shared_ptr<const serve::ServingIndex> index);
  uint16_t port() const { return port_; }
  void Stop();

 private:
  std::unique_ptr<serve::QueryEngine> engine_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::mutex sessions_mu_;
  std::vector<std::thread> sessions_;  // guarded by sessions_mu_
  std::thread accept_thread_;
};

/// \brief Outcome of one load point.
struct PointStats {
  double seconds = 0.0;
  uint64_t sent = 0;
  uint64_t answered = 0;
  /// Answered with `ERR`.
  uint64_t errors = 0;
  /// Sampled answers that differ from AnswerOnIndex.
  uint64_t mismatches = 0;
  uint64_t checked = 0;
  /// Still unanswered 1 s after the schedule ended.
  uint64_t unanswered = 0;
  /// Per answered request, microseconds from due time to response.
  std::vector<double> latency_us;
  /// Per sent request, microseconds the send trailed its due time.
  std::vector<double> late_us;
  /// Control-connection round trips (stats / reload) in milliseconds.
  std::vector<double> control_ms;
  uint64_t control_sent = 0;
  uint64_t control_failed = 0;

  uint64_t failed() const {
    return errors + mismatches + unanswered + control_failed;
  }
};

/// \brief The generator: one thread, 3 query connections and 1 control
/// connection.
class LoadGenerator {
 public:
  static constexpr size_t kQueryConnections = 3;
  static constexpr size_t kCheckEvery = 16;
  static constexpr size_t kTraceEvery = 64;

  /// `reference` (the benchmark's own index copy) answers the sampled
  /// checks; `lines` are cycled through in order; `seed` fixes the
  /// arrival times.
  LoadGenerator(const serve::ServingIndex* reference,
                std::vector<std::string> lines, uint64_t seed, SpanLog* log);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  Status Connect(uint16_t port);
  void Close();

  /// Open loop, Poisson arrivals at `qps` for `seconds`. When `control_lines` is non-empty
  /// the control connection sends them in turn every `control_period_s`
  /// of schedule time, counted across calls.
  Result<PointStats> OpenLoop(double qps, double seconds,
                              const std::vector<std::string>& control_lines,
                              double control_period_s);

  /// Closed loop: every query connection keeps `depth` requests in flight
  /// for `seconds`.
  Result<PointStats> ClosedLoop(size_t depth, double seconds);

  /// Synchronous control exchange; `metrics` is read through `# EOF`.
  Result<std::string> Control(const std::string& line);

 private:
  struct Conn {
    int fd = -1;
    serve::LineChunker chunker;
    /// Point-local request numbers awaiting an answer, oldest first.
    std::vector<uint32_t> inflight;
    size_t inflight_head = 0;
    size_t outstanding() const { return inflight.size() - inflight_head; }
  };

  /// State of one point while it runs.
  struct Run;

  void ResetInflight();
  size_t QueryOutstanding() const;
  Status Send(Run* run, size_t conn);
  Status Pump(Run* run, int64_t timeout_ns);
  void Match(Run* run, size_t conn, const std::string& line, int64_t now);

  const serve::ServingIndex* reference_;
  std::vector<std::string> lines_;
  SpanLog* log_;
  Rng arrivals_;
  size_t cursor_ = 0;
  /// Schedule time until the next control line; -1 before the first.
  int64_t control_due_in_ns_ = -1;
  Conn conns_[kQueryConnections + 1];
};

/// \brief Cumulative buckets of one histogram read from the `metrics`
/// exposition.
struct PromHistogram {
  /// (upper bound, cumulative count); the +Inf bucket is last.
  std::vector<std::pair<double, double>> buckets;
  double sum = 0.0;
  double count = 0.0;
};

/// \brief Extracts histogram `name` (sanitized, e.g. "serve_latency_us").
PromHistogram ParsePromHistogram(const std::string& text,
                                 const std::string& name);

/// \brief Quantile `q` of the samples recorded between two readings,
/// interpolated inside the bucket that holds it; 0 when none.
double DeltaQuantile(const PromHistogram& before, const PromHistogram& after,
                     double q);

/// \brief `key=value` fields of a `stats` reply.
uint64_t StatsField(const std::string& stats_line, const std::string& key);

}  // namespace e2e
}  // namespace prefcover

#endif  // PREFCOVER_BENCH_E2E_SERVE_LOAD_H_
