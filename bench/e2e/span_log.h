// In-memory span log of the end-to-end benchmark.
//
// Spans are recorded by benchmark code only, one around each public call
// into a layer, with the layer's name as the category (setup,
// clickstream, graph, core, dist, serve; "chain" and "stage" group the
// calls of one timed chain). The program's own obs::Tracing stays
// disarmed: its internal spans are not part of this benchmark.
//
// Every scope is timed whether or not the log is enabled, so untraced
// runs pay two clock reads per call and traced runs additionally append
// one record. All recording happens on the benchmark's main thread.

#ifndef PREFCOVER_BENCH_E2E_SPAN_LOG_H_
#define PREFCOVER_BENCH_E2E_SPAN_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/json.h"

namespace prefcover {
namespace e2e {

/// \brief steady_clock nanoseconds.
int64_t NowNs();

struct SpanRecord {
  std::string name;
  std::string category;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in SpanLog::spans(); -1 at top level.
  int parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one. Returns its id, or -1
  /// when the log is disabled.
  int Open(std::string name, std::string category, int64_t start_ns);
  void Close(int id, int64_t end_ns);

  /// Records an already finished span under the innermost open span.
  void AddClosed(std::string name, std::string category, int64_t start_ns,
                 int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace-event document ({"displayTimeUnit":"ms",
  /// "traceEvents":[...]}) of complete events, sorted by start time.
  JsonValue ToChromeTrace() const;

  /// Per category: the summed duration of spans not nested inside a span
  /// of the same category ("wall"), and the summed self time (duration
  /// minus the part of it that child spans cover).
  struct CategoryTime {
    double wall_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, CategoryTime> TimeByCategory() const;

  /// Smallest share, over spans of `category`, of the span's duration that
  /// its child spans cover. 1 when no such span has a nonzero duration.
  double MinChildCoverage(const std::string& category) const;

 private:
  /// Nanoseconds of span `id` covered by the union of its children.
  int64_t ChildCoveredNs(size_t id) const;

  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::vector<std::vector<int>> children_;
};

/// \brief Times a scope, and records it as a span when the log is enabled.
class Timed {
 public:
  Timed(SpanLog* log, std::string name, std::string category);
  ~Timed();

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double Stop();

 private:
  SpanLog* log_;
  int64_t start_ns_;
  int id_ = -1;
  double seconds_ = -1.0;
};

}  // namespace e2e
}  // namespace prefcover

#endif  // PREFCOVER_BENCH_E2E_SPAN_LOG_H_
