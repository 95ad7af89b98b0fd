#include "span_log.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

namespace prefcover {
namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Open(std::string name, std::string category, int64_t start_ns) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), std::move(category), start_ns, start_ns,
                    parent});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<size_t>(parent)].push_back(id);
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int id, int64_t end_ns) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
  // Spans close in LIFO order; tolerate a stray id instead of corrupting
  // the stack.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

void SpanLog::AddClosed(std::string name, std::string category,
                        int64_t start_ns, int64_t end_ns) {
  const int id = Open(std::move(name), std::move(category), start_ns);
  Close(id, end_ns);
}

JsonValue SpanLog::ToChromeTrace() const {
  std::vector<size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return spans_[a].start_ns < spans_[b].start_ns;
  });
  const int64_t origin = spans_.empty() ? 0 : spans_[order[0]].start_ns;
  const double pid = static_cast<double>(::getpid());
  JsonValue events = JsonValue::Array();
  for (size_t i : order) {
    const SpanRecord& s = spans_[i];
    JsonValue e = JsonValue::Object();
    e.Set("name", JsonValue::Str(s.name));
    e.Set("cat", JsonValue::Str(s.category));
    e.Set("ph", JsonValue::Str("X"));
    e.Set("ts", JsonValue::Number(static_cast<double>(s.start_ns - origin) /
                                  1e3));
    e.Set("dur",
          JsonValue::Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    e.Set("pid", JsonValue::Number(pid));
    e.Set("tid", JsonValue::Number(0));
    events.Append(std::move(e));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("displayTimeUnit", JsonValue::Str("ms"));
  doc.Set("traceEvents", std::move(events));
  return doc;
}

int64_t SpanLog::ChildCoveredNs(size_t id) const {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (int c : children_[id]) {
    const SpanRecord& child = spans_[static_cast<size_t>(c)];
    intervals.emplace_back(child.start_ns, child.end_ns);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = spans_[id].start_ns;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    const int64_t to = std::min(end, spans_[id].end_ns);
    if (to > from) covered += to - from;
    reach = std::max(reach, end);
  }
  return covered;
}

std::map<std::string, SpanLog::CategoryTime> SpanLog::TimeByCategory() const {
  std::map<std::string, CategoryTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const int64_t duration = s.end_ns - s.start_ns;
    CategoryTime& t = out[s.category];
    t.self_s += static_cast<double>(duration - ChildCoveredNs(i)) / 1e9;
    bool nested_in_same = false;
    for (int p = s.parent; p >= 0 && !nested_in_same;
         p = spans_[static_cast<size_t>(p)].parent) {
      nested_in_same = spans_[static_cast<size_t>(p)].category == s.category;
    }
    if (!nested_in_same) t.wall_s += static_cast<double>(duration) / 1e9;
  }
  return out;
}

double SpanLog::MinChildCoverage(const std::string& category) const {
  double worst = 1.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.category != category || s.end_ns <= s.start_ns) continue;
    worst = std::min(worst, static_cast<double>(ChildCoveredNs(i)) /
                                static_cast<double>(s.end_ns - s.start_ns));
  }
  return worst;
}

Timed::Timed(SpanLog* log, std::string name, std::string category)
    : log_(log),
      start_ns_(NowNs()),
      id_(log_->Open(std::move(name), std::move(category), start_ns_)) {}

Timed::~Timed() { Stop(); }

double Timed::Stop() {
  if (seconds_ < 0.0) {
    const int64_t end = NowNs();
    log_->Close(id_, end);
    seconds_ = static_cast<double>(end - start_ns_) / 1e9;
  }
  return seconds_;
}

}  // namespace e2e
}  // namespace prefcover
