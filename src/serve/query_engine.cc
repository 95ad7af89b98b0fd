#include "serve/query_engine.h"

#include <cassert>
#include <chrono>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/failpoint.h"

namespace prefcover {
namespace serve {

namespace {

/// serve.latency_us buckets: 1-2-5 decades from 1us to 1s; slower
/// requests land in the overflow bucket.
std::vector<double> LatencyBucketsMicros() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 100000.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(1000000.0);
  return bounds;
}

}  // namespace

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

QueryEngine::QueryEngine(std::shared_ptr<const ServingIndex> index,
                         QueryEngineOptions /*options*/)
    : index_(std::move(index)) {
  assert(index_ != nullptr && "QueryEngine needs an index");
  auto& registry = obs::MetricsRegistry::Global();
  requests_total_ = registry.GetCounter("serve.requests");
  index_reloads_ = registry.GetCounter("serve.index_reloads");
  latency_us_hist_ =
      registry.GetHistogram("serve.latency_us", LatencyBucketsMicros());
}

Response QueryEngine::Answer(const Request& request) {
  const int64_t start_ns = SteadyNowNanos();
  Response response = AnswerOnIndex(*index(), request);
  requests_total_->Increment();
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  latency_us_hist_->Record(
      static_cast<double>(SteadyNowNanos() - start_ns) / 1000.0);
  return response;
}

Status QueryEngine::SwapIndex(std::shared_ptr<const ServingIndex> index) {
  if (index == nullptr) {
    return Status::InvalidArgument("SwapIndex: index must not be null");
  }
  PREFCOVER_FAILPOINT_STATUS("serve.reload_swap");
  obs::Span span("serve.reload_swap", "serve");
  span.Arg("retained", static_cast<uint64_t>(index->NumRetained()));
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index_ = std::move(index);
  }
  index_reloads_->Increment();
  n_index_reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::shared_ptr<const ServingIndex> QueryEngine::index() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_;
}

QueryEngineStats QueryEngine::Stats() const {
  QueryEngineStats stats;
  stats.requests = n_requests_.load(std::memory_order_relaxed);
  stats.index_reloads = n_index_reloads_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serve
}  // namespace prefcover
