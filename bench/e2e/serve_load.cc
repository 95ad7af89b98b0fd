#include "serve_load.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <utility>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/random.h"

namespace prefcover {
namespace e2e {

std::vector<std::string> MakeRequestLines(const serve::ServingIndex& index,
                                          double zipf_s, size_t count,
                                          uint64_t seed) {
  const auto n = static_cast<uint32_t>(index.NumNodes());
  Rng rng(seed ^ 0x5E27E10ADULL);
  std::vector<uint32_t> items(n);
  std::iota(items.begin(), items.end(), 0u);
  rng.Shuffle(&items);
  const ZipfDistribution popularity(n, zipf_s);
  const uint64_t retained = std::max<uint64_t>(1, index.NumRetained());
  std::vector<std::string> lines;
  lines.reserve(count);
  char buffer[64];
  for (size_t i = 0; i < count; ++i) {
    const double mix = rng.NextDouble();
    const uint32_t item = items[popularity.Sample(&rng)];
    if (mix < 0.80) {
      std::snprintf(buffer, sizeof(buffer), "subs %u 4", item);
    } else if (mix < 0.95) {
      std::snprintf(buffer, sizeof(buffer), "covered %u", item);
    } else {
      std::snprintf(buffer, sizeof(buffer), "coverk %llu",
                    static_cast<unsigned long long>(
                        1 + rng.NextBounded(retained)));
    }
    lines.emplace_back(buffer);
  }
  return lines;
}

// --- QueryServer -----------------------------------------------------------

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start(std::shared_ptr<const serve::ServingIndex> index) {
  serve::IgnoreSigpipe();
  engine_ = std::make_unique<serve::QueryEngine>(std::move(index),
                                                 serve::QueryEngineOptions());
  PREFCOVER_ASSIGN_OR_RETURN(listener_, serve::ListenTcp(0));
  PREFCOVER_ASSIGN_OR_RETURN(port_, serve::LocalPort(listener_));
  accept_thread_ = std::thread([this] {
    for (;;) {
      auto fd = serve::AcceptClient(listener_);
      if (!fd.ok()) break;  // Stop() shut the listener down
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.emplace_back([this, conn = *fd] {
        (void)serve::ServeConnectionLoop(engine_.get(), conn);
      });
    }
  });
  return Status::OK();
}

void QueryServer::Stop() {
  if (listener_ >= 0) ::shutdown(listener_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (std::thread& session : sessions_) session.join();
    sessions_.clear();
  }
  if (listener_ >= 0) ::close(listener_);
  listener_ = -1;
  port_ = 0;
  engine_.reset();
}

// --- LoadGenerator ---------------------------------------------------------

struct LoadGenerator::Run {
  PointStats stats;
  /// Per point-local request number.
  std::vector<int64_t> due_ns;
  std::vector<int64_t> sent_ns;
  std::vector<size_t> line_of;
  bool closed_loop = false;
  /// Closed loop: no new sends after this; answers after it are not
  /// counted towards the rate.
  int64_t end_ns = 0;
  uint64_t answered_by_end = 0;
  bool control_busy = false;
  int64_t control_sent_ns = 0;
};

namespace {

constexpr size_t kControl = LoadGenerator::kQueryConnections;

bool IsError(std::string_view line) { return line.rfind("ERR", 0) == 0; }

}  // namespace

LoadGenerator::LoadGenerator(const serve::ServingIndex* reference,
                             std::vector<std::string> lines, uint64_t seed,
                             SpanLog* log)
    : reference_(reference),
      lines_(std::move(lines)),
      log_(log),
      arrivals_(seed ^ 0xA5517A15ULL) {
  for (std::string& line : lines_) line.push_back('\n');
}

LoadGenerator::~LoadGenerator() { Close(); }

Status LoadGenerator::Connect(uint16_t port) {
  for (Conn& conn : conns_) {
    PREFCOVER_ASSIGN_OR_RETURN(conn.fd,
                               serve::ConnectTcp("127.0.0.1", port, 5000));
    // Small request lines must not wait for the previous one's ACK.
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Status::OK();
}

void LoadGenerator::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
}

void LoadGenerator::ResetInflight() {
  for (Conn& conn : conns_) {
    conn.inflight.clear();
    conn.inflight_head = 0;
  }
}

size_t LoadGenerator::QueryOutstanding() const {
  size_t outstanding = 0;
  for (size_t c = 0; c < kQueryConnections; ++c) {
    outstanding += conns_[c].outstanding();
  }
  return outstanding;
}

Status LoadGenerator::Send(Run* run, size_t conn) {
  const size_t local = run->sent_ns.size();
  const size_t line = cursor_++ % lines_.size();
  run->line_of.push_back(line);
  if (run->closed_loop) run->due_ns.push_back(NowNs());
  PREFCOVER_RETURN_NOT_OK(serve::WriteFully(
      conns_[conn].fd, lines_[line].data(), lines_[line].size()));
  const int64_t sent = NowNs();
  run->sent_ns.push_back(sent);
  if (!run->closed_loop) {
    run->stats.late_us.push_back(
        static_cast<double>(sent - run->due_ns[local]) / 1e3);
  }
  conns_[conn].inflight.push_back(static_cast<uint32_t>(local));
  ++run->stats.sent;
  return Status::OK();
}

void LoadGenerator::Match(Run* run, size_t conn, const std::string& line,
                          int64_t now) {
  if (conn == kControl) {
    run->stats.control_ms.push_back(
        static_cast<double>(now - run->control_sent_ns) / 1e6);
    if (IsError(line) || !run->control_busy) ++run->stats.control_failed;
    run->control_busy = false;
    return;
  }
  Conn& c = conns_[conn];
  if (c.outstanding() == 0) {  // an answer nobody asked for
    ++run->stats.errors;
    return;
  }
  const uint32_t local = c.inflight[c.inflight_head++];
  ++run->stats.answered;
  if (now <= run->end_ns) ++run->answered_by_end;
  run->stats.latency_us.push_back(
      static_cast<double>(now - run->due_ns[local]) / 1e3);
  if (IsError(line)) {
    ++run->stats.errors;
  } else if (local % kCheckEvery == 0) {
    ++run->stats.checked;
    const std::string& sent = lines_[run->line_of[local]];
    auto request =
        serve::ParseRequest(std::string_view(sent).substr(0, sent.size() - 1));
    if (!request.ok() ||
        serve::AnswerOnIndex(*reference_, *request).line != line) {
      ++run->stats.mismatches;
    }
  }
  if (log_->enabled() && local % kTraceEvery == 0) {
    log_->AddClosed("request", "serve", run->sent_ns[local], now);
  }
  if (run->closed_loop && now < run->end_ns) {
    if (!Send(run, conn).ok()) ++run->stats.errors;
  }
}

Status LoadGenerator::Pump(Run* run, int64_t timeout_ns) {
  pollfd fds[kQueryConnections + 1];
  for (size_t i = 0; i <= kControl; ++i) {
    fds[i] = {conns_[i].fd, POLLIN, 0};
  }
  timespec timeout;
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  const int ready = ::ppoll(fds, kQueryConnections + 1, &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::IOError("ppoll failed");
  }
  char buffer[1 << 16];
  for (size_t i = 0; i <= kControl && ready > 0; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    PREFCOVER_ASSIGN_OR_RETURN(
        size_t got, serve::ReadSome(conns_[i].fd, buffer, sizeof(buffer)));
    if (got == 0) return Status::IOError("server closed a connection");
    const int64_t now = NowNs();
    conns_[i].chunker.Append(std::string_view(buffer, got));
    serve::LineChunker::Line line;
    while (conns_[i].chunker.Next(&line)) Match(run, i, line.text, now);
  }
  return Status::OK();
}

Result<PointStats> LoadGenerator::OpenLoop(
    double qps, double seconds, const std::vector<std::string>& control_lines,
    double control_period_s) {
  Run run;
  run.stats.seconds = seconds;
  ResetInflight();
  // Independent users: Poisson arrivals at `qps`.
  const int64_t start = NowNs() + 1'000'000;
  const int64_t schedule_end = start + static_cast<int64_t>(seconds * 1e9);
  for (double at = arrivals_.NextExponential(qps) * 1e9; at < seconds * 1e9;
       at += arrivals_.NextExponential(qps) * 1e9) {
    run.due_ns.push_back(start + static_cast<int64_t>(at));
  }
  const size_t total = run.due_ns.size();
  auto due = [&run](size_t i) { return run.due_ns[i]; };
  const int64_t deadline = schedule_end + 1'000'000'000;
  const auto period_ns = static_cast<int64_t>(control_period_s * 1e9);
  if (control_due_in_ns_ < 0) control_due_in_ns_ = period_ns;
  int64_t next_control = control_lines.empty()
                             ? std::numeric_limits<int64_t>::max()
                             : start + control_due_in_ns_;
  size_t control_turn = 0;
  size_t next = 0;
  size_t rotate = 0;
  for (;;) {
    const int64_t now = NowNs();
    while (next < total && due(next) <= now) {
      // The least-loaded connection, ties rotating, like a client-side
      // balancer.
      size_t best = rotate;
      for (size_t k = 1; k < kQueryConnections; ++k) {
        const size_t c = (rotate + k) % kQueryConnections;
        if (conns_[c].outstanding() < conns_[best].outstanding()) best = c;
      }
      rotate = (rotate + 1) % kQueryConnections;
      PREFCOVER_RETURN_NOT_OK(Send(&run, best));
      ++next;
    }
    if (next_control <= now && next_control < schedule_end &&
        !run.control_busy) {
      const std::string line =
          control_lines[control_turn++ % control_lines.size()] + "\n";
      run.control_sent_ns = NowNs();
      PREFCOVER_RETURN_NOT_OK(
          serve::WriteFully(conns_[kControl].fd, line.data(), line.size()));
      run.control_busy = true;
      ++run.stats.control_sent;
      next_control += period_ns;
    }
    if (next == total && QueryOutstanding() == 0 && !run.control_busy) break;
    if (now >= deadline) break;
    int64_t wake = next < total ? due(next) : deadline;
    if (next_control < schedule_end) wake = std::min(wake, next_control);
    PREFCOVER_RETURN_NOT_OK(
        Pump(&run, std::max<int64_t>(0, std::min(wake, deadline) - now)));
  }
  // The control cadence runs on schedule time across points.
  if (!control_lines.empty()) {
    control_due_in_ns_ = std::max<int64_t>(0, next_control - schedule_end);
  }
  run.stats.unanswered = QueryOutstanding();
  if (run.control_busy) ++run.stats.control_failed;
  // Late answers must still be drained, or FIFO matching on the next point
  // would pair them with the wrong requests.
  const int64_t drain_until = NowNs() + 10'000'000'000;
  for (;;) {
    if (QueryOutstanding() == 0 && !run.control_busy) break;
    const int64_t now = NowNs();
    if (now >= drain_until) {
      return Status::IOError("connections still backlogged 10 s after the "
                             "schedule ended");
    }
    PREFCOVER_RETURN_NOT_OK(Pump(&run, drain_until - now));
  }
  return std::move(run.stats);
}

Result<PointStats> LoadGenerator::ClosedLoop(size_t depth, double seconds) {
  Run run;
  run.closed_loop = true;
  run.stats.seconds = seconds;
  ResetInflight();
  const int64_t start = NowNs();
  run.end_ns = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t c = 0; c < kQueryConnections; ++c) {
    for (size_t d = 0; d < depth; ++d) {
      PREFCOVER_RETURN_NOT_OK(Send(&run, c));
    }
  }
  const int64_t deadline = run.end_ns + 1'000'000'000;
  for (;;) {
    const int64_t now = NowNs();
    if (QueryOutstanding() == 0) break;
    if (now >= deadline) {
      return Status::IOError("closed loop still waiting 1 s after its end");
    }
    PREFCOVER_RETURN_NOT_OK(Pump(&run, deadline - now));
  }
  run.stats.answered = run.answered_by_end;
  return std::move(run.stats);
}

Result<std::string> LoadGenerator::Control(const std::string& line) {
  Conn& conn = conns_[kControl];
  const std::string request = line + "\n";
  PREFCOVER_RETURN_NOT_OK(
      serve::WriteFully(conn.fd, request.data(), request.size()));
  const bool multi_line = line == "metrics";
  std::string reply;
  char buffer[1 << 16];
  const int64_t deadline = NowNs() + 10'000'000'000;
  for (;;) {
    serve::LineChunker::Line got;
    while (conn.chunker.Next(&got)) {
      reply += got.text;
      if (!multi_line || got.text == "# EOF") return reply;
      reply.push_back('\n');
    }
    const int64_t now = NowNs();
    if (now >= deadline) return Status::IOError("control reply timed out");
    PREFCOVER_ASSIGN_OR_RETURN(
        bool readable,
        serve::PollReadable(conn.fd,
                            static_cast<int>((deadline - now) / 1'000'000)));
    if (!readable) continue;
    PREFCOVER_ASSIGN_OR_RETURN(
        size_t n, serve::ReadSome(conn.fd, buffer, sizeof(buffer)));
    if (n == 0) return Status::IOError("server closed the control connection");
    conn.chunker.Append(std::string_view(buffer, n));
  }
}

// --- metrics scraping ------------------------------------------------------

PromHistogram ParsePromHistogram(const std::string& text,
                                 const std::string& name) {
  PromHistogram out;
  const std::string bucket = name + "_bucket{le=\"";
  const std::string sum = name + "_sum ";
  const std::string count = name + "_count ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind(bucket, 0) == 0) {
      const size_t quote = line.find('"', bucket.size());
      const size_t space = line.rfind(' ');
      if (quote == std::string::npos || space == std::string::npos) continue;
      const std::string le = line.substr(bucket.size(), quote - bucket.size());
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le.c_str(), nullptr);
      out.buckets.emplace_back(bound,
                               std::strtod(line.c_str() + space + 1, nullptr));
    } else if (line.rfind(sum, 0) == 0) {
      out.sum = std::strtod(line.c_str() + sum.size(), nullptr);
    } else if (line.rfind(count, 0) == 0) {
      out.count = std::strtod(line.c_str() + count.size(), nullptr);
    }
  }
  return out;
}

double DeltaQuantile(const PromHistogram& before, const PromHistogram& after,
                     double q) {
  const double total = after.count - before.count;
  if (total <= 0.0) return 0.0;
  const bool aligned = before.buckets.size() == after.buckets.size();
  const double target = q * total;
  double previous = 0.0;
  double lower = 0.0;
  for (size_t b = 0; b < after.buckets.size(); ++b) {
    const double cumulative =
        after.buckets[b].second - (aligned ? before.buckets[b].second : 0.0);
    const double upper = after.buckets[b].first;
    if (cumulative >= target) {
      if (std::isinf(upper)) return lower;
      const double in_bucket = cumulative - previous;
      const double share = in_bucket > 0.0 ? (target - previous) / in_bucket
                                            : 1.0;
      return lower + share * (upper - lower);
    }
    previous = cumulative;
    if (!std::isinf(upper)) lower = upper;
  }
  return lower;
}

uint64_t StatsField(const std::string& stats_line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = stats_line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(stats_line.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace e2e
}  // namespace prefcover
