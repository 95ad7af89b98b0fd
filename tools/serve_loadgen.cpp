// Load generator for the serving layer.
//
// Drives an in-process QueryEngine with a Zipf-distributed query stream at
// a target QPS (or open throttle) and reports achieved throughput and
// p50/p95/p99 latency. Requests are answered one at a time by
// QueryEngine::Answer on this thread; latency is the caller's
// steady-clock time across the call.
//
// The traffic mix mirrors production lookups: mostly `subs` (the
// render-a-substitute path), some `covered` probes, an occasional
// `coverk` planning query. Item popularity follows Zipf(s) over the
// catalog.
//
// Exit status: 0 on success; 1 when any SLO assertion fails
// (--p99_budget_us, --min_qps) or when any protocol error (a response
// that is not OK) occurs — a valid generated stream must never produce
// one.
//
// TCP mode: --connect=host:port drives a live `prefcover serve --port`
// process through the ResilientClient (timeouts, retry/backoff,
// reconnect, circuit breaker) instead of an in-process engine, and
// additionally reports retry/timeout/reconnect counts and the longest
// success gap (time_to_recovery_ms — how long the stream was dark across
// an induced server restart). --assert_max_error_rate turns the observed
// failure rate into the exit status.
//
// Methodology notes live in SERVING.md ("Latency methodology").

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/baseline_solvers.h"
#include "serve/client.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "synth/dataset_profiles.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace {

using prefcover::FlagParser;
using prefcover::NodeId;
using prefcover::QuantileSketch;
using prefcover::Rng;
using prefcover::Status;
using prefcover::StatusCode;
using prefcover::ZipfDistribution;
using prefcover::serve::QueryEngine;
using prefcover::serve::QueryType;
using prefcover::serve::Request;
using prefcover::serve::Response;
using prefcover::serve::ServingIndex;
using prefcover::serve::SteadyNowNanos;
namespace obs = prefcover::obs;

struct Tally {
  uint64_t ok = 0;
  uint64_t protocol_errors = 0;
  QuantileSketch latency_us;

  void Absorb(const Response& response, double elapsed_us) {
    if (response.status.ok()) {
      ++ok;
      latency_us.Add(elapsed_us);
    } else {
      if (protocol_errors < 5) {
        std::fprintf(stderr, "protocol error: %s\n",
                     response.line.c_str());
      }
      ++protocol_errors;
    }
  }
};

// Live scrape state, filled from the sampler thread (which holds the
// sampler lock during on_sample); the main thread reads it only after
// Stop() joins, so no extra synchronization is needed.
struct LiveScrape {
  std::vector<double> requests;  // scraped serve_requests, one per sample
  std::string first_error;      // first lint/parse failure, if any
};

#if defined(__unix__) || defined(__APPLE__)

// Closed-loop TCP mode against a live server. Returns the process exit
// code.
int RunTcpLoadgen(const FlagParser& flags) {
  using prefcover::serve::ClientCounters;
  using prefcover::serve::ResilientClient;
  using prefcover::serve::ResilientClientOptions;

  const std::string target = flags.GetString("connect");
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants host:port, got '%s'\n",
                 target.c_str());
    return 2;
  }
  ResilientClientOptions base;
  base.host = target.substr(0, colon);
  base.port = static_cast<uint16_t>(
      std::atoi(target.substr(colon + 1).c_str()));
  base.request_timeout_ms =
      static_cast<int>(flags.GetInt("request_timeout_ms"));
  base.max_attempts = static_cast<int>(flags.GetInt("max_attempts"));
  base.breaker_threshold =
      static_cast<int>(flags.GetInt("breaker_threshold"));

  const uint32_t nodes =
      static_cast<uint32_t>(flags.GetInt("connect_nodes"));
  const double subs_frac = flags.GetDouble("subs_frac");
  const double covered_frac = flags.GetDouble("covered_frac");
  const uint32_t top_j = static_cast<uint32_t>(flags.GetInt("top_j"));
  const double zipf_s = flags.GetDouble("zipf_s");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const int64_t duration_ms =
      static_cast<int64_t>(flags.GetDouble("duration_s") * 1e3);
  const size_t n_conns =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("connections")));

  // Requests are timed with nanosecond stamps, so a sub-millisecond
  // answer reports its real latency; milliseconds serve only the run
  // clock and the success-gap (recovery) stamps.
  auto now_ns = [] {
    return static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  auto now_ms = [&now_ns] { return now_ns() / 1'000'000; };

  struct ConnResult {
    ClientCounters counters;
    std::vector<std::pair<int64_t, double>> successes;  // (ms, us)
    uint64_t protocol_errors = 0;
  };
  std::vector<ConnResult> results(n_conns);
  std::vector<std::thread> threads;
  threads.reserve(n_conns);
  const int64_t start_ms = now_ms();
  for (size_t c = 0; c < n_conns; ++c) {
    threads.emplace_back([&, c] {
      ResilientClientOptions options = base;
      options.jitter_seed = seed * 1000003ull + c;
      ResilientClient client(options);
      Rng rng(seed + 77ull * c);
      ZipfDistribution zipf(nodes, zipf_s);
      ConnResult& out = results[c];
      while (now_ms() - start_ms < duration_ms) {
        std::string line;
        const double which = rng.NextDouble();
        if (which < subs_frac) {
          line = "subs " + std::to_string(zipf.Sample(&rng)) + " " +
                 std::to_string(top_j);
        } else if (which < subs_frac + covered_frac) {
          line = "covered " + std::to_string(zipf.Sample(&rng));
        } else {
          line = "coverk " + std::to_string(rng.NextBounded(nodes + 1));
        }
        const int64_t sent_ns = now_ns();
        auto response = client.Call(line);
        if (response.ok()) {
          if (response->rfind("OK", 0) != 0 &&
              response->rfind("ERR", 0) != 0) {
            ++out.protocol_errors;
          }
          const int64_t done_ns = now_ns();
          out.successes.emplace_back(
              done_ns / 1'000'000,
              static_cast<double>(done_ns - sent_ns) / 1e3);
        } else if (client.breaker_open()) {
          // Fast-fail window; let the cooldown elapse instead of
          // spinning on FailedPrecondition.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      out.counters = client.counters();
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed_s =
      static_cast<double>(now_ms() - start_ms) / 1e3;

  ClientCounters total;
  uint64_t protocol_errors = 0;
  std::vector<std::pair<int64_t, double>> successes;
  for (const auto& r : results) {
    total.requests += r.counters.requests;
    total.attempts += r.counters.attempts;
    total.retries += r.counters.retries;
    total.reconnects += r.counters.reconnects;
    total.timeouts += r.counters.timeouts;
    total.failures += r.counters.failures;
    total.breaker_opens += r.counters.breaker_opens;
    total.breaker_probes += r.counters.breaker_probes;
    protocol_errors += r.protocol_errors;
    successes.insert(successes.end(), r.successes.begin(),
                     r.successes.end());
  }
  std::sort(successes.begin(), successes.end());
  // The longest dark stretch of the whole stream: across an induced
  // server restart this is the client-observed time to recovery.
  double recovery_ms = 0.0;
  for (size_t i = 1; i < successes.size(); ++i) {
    recovery_ms = std::max(
        recovery_ms,
        static_cast<double>(successes[i].first - successes[i - 1].first));
  }
  QuantileSketch latency_us;
  latency_us.Reserve(successes.size());
  for (const auto& s : successes) latency_us.Add(s.second);
  const double error_rate =
      total.requests == 0
          ? 0.0
          : static_cast<double>(total.failures) /
                static_cast<double>(total.requests);

  std::printf(
      "{\"mode\": \"tcp\", \"requests\": %" PRIu64 ", \"ok\": %zu"
      ", \"failures\": %" PRIu64 ", \"protocol_errors\": %" PRIu64
      ", \"attempts\": %" PRIu64 ", \"retries\": %" PRIu64
      ", \"timeouts\": %" PRIu64 ", \"reconnects\": %" PRIu64
      ", \"breaker_opens\": %" PRIu64 ", \"error_rate\": %.4f"
      ", \"elapsed_s\": %.3f, \"qps\": %.0f"
      ", \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f"
      ", \"time_to_recovery_ms\": %.0f}\n",
      total.requests, successes.size(), total.failures, protocol_errors,
      total.attempts, total.retries, total.timeouts, total.reconnects,
      total.breaker_opens, error_rate, elapsed_s,
      elapsed_s > 0 ? static_cast<double>(successes.size()) / elapsed_s
                    : 0.0,
      latency_us.Quantile(0.50), latency_us.Quantile(0.95),
      latency_us.Quantile(0.99), recovery_ms);

  bool failed = false;
  if (protocol_errors > 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " protocol errors\n",
                 protocol_errors);
    failed = true;
  }
  const double max_error_rate = flags.GetDouble("assert_max_error_rate");
  if (max_error_rate >= 0.0 && error_rate > max_error_rate) {
    std::fprintf(stderr, "FAIL: error rate %.4f above bound %.4f\n",
                 error_rate, max_error_rate);
    failed = true;
  }
  if (successes.empty()) {
    std::fprintf(stderr, "FAIL: no request ever succeeded\n");
    failed = true;
  }
  return failed ? 1 : 0;
}

#endif  // __unix__ || __APPLE__

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Replays a Zipf-distributed query stream against a ServingIndex "
      "and reports p50/p95/p99 latency and throughput.");
  flags.AddString("index", "",
                  "PCSIDX01 index file to serve (or --synth_tier)")
      .AddString("synth_tier", "",
                 "serve a generated scale-tier graph instead of --index: "
                 "S|M|L (top-k-by-weight selection, in-process)")
      .AddInt("synth_k", 0,
              "retained items for --synth_tier; 0 = 1% of the catalog")
      .AddInt("synth_seed", 42, "graph seed for --synth_tier")
      .AddDouble("duration_s", 2.0, "wall-clock run length")
      .AddInt("qps", 0, "target queries/s; 0 = open throttle")
      .AddDouble("zipf_s", 1.0, "Zipf skew of item popularity")
      .AddInt("top_j", 4, "substitutes requested per subs query")
      .AddDouble("subs_frac", 0.80, "fraction of subs queries")
      .AddDouble("covered_frac", 0.15,
                 "fraction of covered queries (rest is coverk)")
      .AddInt("seed", 7, "traffic stream seed")
      .AddInt("p99_budget_us", 0, "fail if p99 exceeds this; 0 = off")
      .AddInt("min_qps", 0, "fail if achieved qps is below this")
      .AddInt("metrics_poll_ms", 0,
              "scrape the live Prometheus exposition at this interval "
              "during the run and assert the scraped series (0 = off)")
      .AddDouble("live_p99_tolerance", 0.20,
                 "allowed relative slack between the scraped engine p99 "
                 "and the client-observed p99 (on top of the owning "
                 "bucket's resolution)")
      .AddString("connect", "",
                 "host:port of a live `prefcover serve --port` process; "
                 "drives it over TCP through the resilient client "
                 "instead of an in-process engine")
      .AddInt("connections", 4, "client threads for --connect")
      .AddInt("connect_nodes", 512,
              "node-id range the --connect stream draws from")
      .AddInt("request_timeout_ms", 2000,
              "per-request timeout for --connect")
      .AddInt("max_attempts", 4,
              "attempts per request for --connect (idempotent only)")
      .AddInt("breaker_threshold", 8,
              "client circuit-breaker threshold for --connect")
      .AddDouble("assert_max_error_rate", -1.0,
                 "fail when the --connect failure rate exceeds this "
                 "(negative = off)");
  Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    return parse_status.code() == StatusCode::kOutOfRange ? 0 : 2;
  }
  if (!flags.GetString("connect").empty()) {
#if defined(__unix__) || defined(__APPLE__)
    return RunTcpLoadgen(flags);
#else
    std::fprintf(stderr, "--connect requires a POSIX host\n");
    return 2;
#endif
  }
  if (flags.GetString("index").empty() ==
      flags.GetString("synth_tier").empty()) {
    std::fprintf(stderr, "exactly one of --index/--synth_tier required\n%s",
                 flags.UsageString().c_str());
    return 2;
  }

  std::shared_ptr<const ServingIndex> index;
  if (!flags.GetString("index").empty()) {
    auto loaded = ServingIndex::Load(flags.GetString("index"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load index: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    index =
        std::make_shared<const ServingIndex>(std::move(loaded).value());
  } else {
    // Self-contained mode for perf work: tier graph + top-k-by-weight
    // selection (selection quality is irrelevant to serving load).
    auto tier =
        prefcover::ParseScaleTierName(flags.GetString("synth_tier"));
    if (!tier.ok()) {
      std::fprintf(stderr, "%s\n", tier.status().ToString().c_str());
      return 2;
    }
    auto graph = prefcover::GenerateScaleTierGraph(
        *tier, static_cast<uint64_t>(flags.GetInt("synth_seed")));
    if (!graph.ok()) {
      std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
      return 2;
    }
    size_t k = static_cast<size_t>(flags.GetInt("synth_k"));
    if (k == 0) k = std::max<size_t>(1, graph->NumNodes() / 100);
    auto solution = prefcover::SolveTopKWeight(
        *graph, k, prefcover::Variant::kIndependent);
    if (!solution.ok()) {
      std::fprintf(stderr, "%s\n",
                   solution.status().ToString().c_str());
      return 2;
    }
    auto built = ServingIndex::Build(*graph, *solution);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 2;
    }
    index = std::make_shared<const ServingIndex>(std::move(built).value());
  }
  const uint32_t n = static_cast<uint32_t>(index->NumNodes());
  const uint64_t num_retained = index->NumRetained();
  std::fprintf(stderr, "index: %" PRIu32 " nodes, %" PRIu64
                       " retained, top_m=%zu\n",
               n, num_retained, index->top_m());

  QueryEngine engine(index);

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  ZipfDistribution zipf(n, flags.GetDouble("zipf_s"));
  const double subs_frac = flags.GetDouble("subs_frac");
  const double covered_frac = flags.GetDouble("covered_frac");
  const uint32_t top_j = static_cast<uint32_t>(flags.GetInt("top_j"));

  const int64_t duration_ns =
      static_cast<int64_t>(flags.GetDouble("duration_s") * 1e9);
  const int64_t target_qps = flags.GetInt("qps");
  const int64_t interarrival_ns =
      target_qps > 0 ? 1000000000 / target_qps : 0;

  // Live scraping: a background sampler snapshots the global registry on
  // the poll interval and each sample goes through the full exposition
  // render + lint + parse path — exactly what an external scraper of the
  // serve `metrics` verb would exercise.
  LiveScrape scrape;
  std::unique_ptr<obs::MetricsSampler> sampler;
  const int64_t poll_ms = flags.GetInt("metrics_poll_ms");
  if (poll_ms > 0) {
    obs::TimeseriesOptions sampler_options;
    sampler_options.interval_s = static_cast<double>(poll_ms) / 1000.0;
    sampler_options.on_sample = [&scrape](
                                    const obs::MetricsSample& current,
                                    const obs::MetricsSample*) {
      const std::string text = obs::RenderPrometheusText(current.snapshot);
      obs::LintResult lint = obs::LintPrometheusText(text);
      if (!lint.ok) {
        if (scrape.first_error.empty()) scrape.first_error = lint.message;
        return;
      }
      double requests = 0.0;
      if (!obs::FindPrometheusValue(text, "serve_requests", &requests)) {
        if (scrape.first_error.empty()) {
          scrape.first_error = "serve_requests missing from exposition";
        }
        return;
      }
      scrape.requests.push_back(requests);
    };
    sampler = std::make_unique<obs::MetricsSampler>(
        &obs::MetricsRegistry::Global(), sampler_options);
    sampler->Start();
  }

  Tally tally;
  tally.latency_us.Reserve(1 << 20);
  uint64_t submitted = 0;

  const int64_t start_ns = SteadyNowNanos();
  int64_t next_send_ns = start_ns;
  while (true) {
    const int64_t now_ns = SteadyNowNanos();
    if (now_ns - start_ns >= duration_ns) break;
    if (interarrival_ns > 0) {
      if (now_ns < next_send_ns) {
        // Sub-10us gaps: spin instead of sleeping, the OS timer would
        // blow the pacing budget.
        continue;
      }
      next_send_ns += interarrival_ns;
    }

    Request request;
    const double which = rng.NextDouble();
    if (which < subs_frac) {
      request.type = QueryType::kSubstitutes;
      request.v = static_cast<NodeId>(zipf.Sample(&rng));
      request.top_j = top_j;
    } else if (which < subs_frac + covered_frac) {
      request.type = QueryType::kCovered;
      request.v = static_cast<NodeId>(zipf.Sample(&rng));
    } else {
      request.type = QueryType::kCoverageAtK;
      request.coverage_k = rng.NextBounded(num_retained + 1);
    }

    const int64_t sent_ns = SteadyNowNanos();
    Response response = engine.Answer(request);
    tally.Absorb(response,
                 static_cast<double>(SteadyNowNanos() - sent_ns) / 1000.0);
    ++submitted;
  }
  const int64_t end_ns = SteadyNowNanos();
  // Stop takes a final sample, so the scraped series always covers the
  // complete run even when the poll interval exceeds the duration.
  if (sampler != nullptr) sampler->Stop();

  const double elapsed_s = static_cast<double>(end_ns - start_ns) / 1e9;
  const double achieved_qps =
      elapsed_s > 0 ? static_cast<double>(tally.ok) / elapsed_s : 0.0;
  const double p50 = tally.latency_us.Quantile(0.50);
  const double p95 = tally.latency_us.Quantile(0.95);
  const double p99 = tally.latency_us.Quantile(0.99);

  // Engine-side view from the final scraped sample: request total and
  // the bucket-interpolated p99 of serve.latency_us.
  double live_p99_us = 0.0;
  const prefcover::obs::MetricsSnapshot::HistogramValue* live_hist =
      nullptr;
  std::vector<prefcover::obs::MetricsSample> live_series;
  if (sampler != nullptr) {
    live_series = sampler->Series();
    if (!live_series.empty()) {
      for (const auto& h : live_series.back().snapshot.histograms) {
        if (h.name == "serve.latency_us") {
          live_hist = &h;
          live_p99_us = obs::HistogramQuantile(h, 0.99);
          break;
        }
      }
    }
  }
  char live_fields[160] = "";
  if (sampler != nullptr) {
    std::snprintf(live_fields, sizeof(live_fields),
                  ", \"live_samples\": %zu, \"live_requests\": %.0f"
                  ", \"live_p99_us\": %.1f",
                  scrape.requests.size(),
                  scrape.requests.empty() ? 0.0 : scrape.requests.back(),
                  live_p99_us);
  }

  std::printf("{\"submitted\": %" PRIu64 ", \"ok\": %" PRIu64
              ", \"protocol_errors\": %" PRIu64
              ", \"elapsed_s\": %.3f, \"qps\": %.0f"
              ", \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f%s}\n",
              submitted, tally.ok, tally.protocol_errors, elapsed_s,
              achieved_qps, p50, p95, p99, live_fields);

  bool failed = false;
  if (tally.protocol_errors > 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " protocol errors\n",
                 tally.protocol_errors);
    failed = true;
  }
  if (flags.GetInt("p99_budget_us") > 0 &&
      p99 > static_cast<double>(flags.GetInt("p99_budget_us"))) {
    std::fprintf(stderr, "FAIL: p99 %.1fus exceeds budget %" PRId64
                         "us\n",
                 p99, flags.GetInt("p99_budget_us"));
    failed = true;
  }
  if (flags.GetInt("min_qps") > 0 &&
      achieved_qps < static_cast<double>(flags.GetInt("min_qps"))) {
    std::fprintf(stderr, "FAIL: qps %.0f below floor %" PRId64 "\n",
                 achieved_qps, flags.GetInt("min_qps"));
    failed = true;
  }
  if (sampler != nullptr) {
    // Live-series SLOs, from the scraped exposition rather than the
    // in-process stats struct: the scrape path itself is under test.
    if (!scrape.first_error.empty()) {
      std::fprintf(stderr, "FAIL: exposition scrape: %s\n",
                   scrape.first_error.c_str());
      failed = true;
    }
    for (size_t i = 1; i < scrape.requests.size(); ++i) {
      if (scrape.requests[i] < scrape.requests[i - 1]) {
        std::fprintf(stderr,
                     "FAIL: serve_requests went backwards (%.0f -> %.0f)\n",
                     scrape.requests[i - 1], scrape.requests[i]);
        failed = true;
        break;
      }
    }
    if (scrape.requests.empty() || scrape.requests.back() <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: scraped serve_requests never advanced\n");
      failed = true;
    }
    // p99 consistency: the engine histogram can only resolve latency to
    // its owning 1-2-5 bucket, so the check allows the client p99's
    // bucket range widened by --live_p99_tolerance.
    if (live_hist != nullptr && tally.ok > 0) {
      const double tol = flags.GetDouble("live_p99_tolerance");
      double bucket_lo = 0.0;
      double bucket_hi = std::numeric_limits<double>::infinity();
      for (size_t b = 0; b < live_hist->bounds.size(); ++b) {
        if (live_hist->bounds[b] >= p99) {
          bucket_hi = live_hist->bounds[b];
          bucket_lo = b > 0 ? live_hist->bounds[b - 1] : 0.0;
          break;
        }
        bucket_lo = live_hist->bounds[b];
      }
      if (live_p99_us < bucket_lo * (1.0 - tol) ||
          live_p99_us > bucket_hi * (1.0 + tol)) {
        std::fprintf(stderr,
                     "FAIL: live p99 %.1fus inconsistent with client p99 "
                     "%.1fus (bucket [%.0f, %.0f], tolerance %.0f%%)\n",
                     live_p99_us, p99, bucket_lo, bucket_hi, tol * 100.0);
        failed = true;
      }
    }
  }
  return failed ? 1 : 0;
}
