#include "clickstream/clickstream.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "util/logging.h"

namespace prefcover {

void Clickstream::AddSession(const SessionView& session) {
  PREFCOVER_CHECK(!session.HasDwell() ||
                  session.dwell_seconds.size() == session.clicks.size());
  if (session.HasDwell() || !dwell_.empty()) {
    // Clicks without dwell read as unknown: every earlier one when the
    // first dwell arrives, and this session's when it has none.
    dwell_.resize(clicks_.size(), -1.0);
    if (session.HasDwell()) {
      dwell_.insert(dwell_.end(), session.dwell_seconds.begin(),
                    session.dwell_seconds.end());
    } else {
      dwell_.resize(clicks_.size() + session.clicks.size(), -1.0);
    }
  }
  clicks_.insert(clicks_.end(), session.clicks.begin(), session.clicks.end());
  click_offsets_.push_back(clicks_.size());
  purchases_.push_back(session.purchase);
}

void Clickstream::Reserve(size_t num_sessions) {
  click_offsets_.reserve(num_sessions + 1);
  purchases_.reserve(num_sessions);
}

SessionView Clickstream::session(size_t s) const {
  PREFCOVER_DCHECK(s < NumSessions());
  const size_t begin = click_offsets_[s];
  const size_t size = click_offsets_[s + 1] - begin;
  SessionView view;
  view.clicks = std::span(clicks_).subspan(begin, size);
  if (!dwell_.empty()) {
    view.dwell_seconds = std::span(dwell_).subspan(begin, size);
  }
  view.purchase = purchases_[s];
  return view;
}

ClickstreamStats Clickstream::ComputeStats() const {
  ClickstreamStats s;
  s.num_sessions = NumSessions();
  s.num_items = dictionary_.size();
  s.num_clicks = clicks_.size();
  size_t purchases = 0;
  size_t alternative_total = 0;
  size_t at_most_one = 0;
  // The purchase session that last counted each item, by its 1-based
  // rank among purchase sessions, so that a repeated click counts once:
  // alts is Alternatives().size() without building the list. It covers
  // every clicked id, so the loop below never grows it.
  size_t id_bound = dictionary_.size();
  for (ItemId item : clicks_) {
    id_bound = std::max<size_t>(id_bound, size_t{item} + 1);
  }
  std::vector<size_t> counted_by(id_bound, 0);
  for (size_t i = 0; i < NumSessions(); ++i) {
    const ItemId purchase = purchases_[i];
    if (purchase == kInvalidItem) continue;
    ++purchases;
    size_t alts = 0;
    for (ItemId item : session(i).clicks) {
      if (item == purchase || counted_by[item] == purchases) continue;
      counted_by[item] = purchases;
      ++alts;
    }
    alternative_total += alts;
    if (alts <= 1) ++at_most_one;
  }
  s.num_purchases = purchases;
  if (s.num_purchases > 0) {
    s.mean_alternatives = static_cast<double>(alternative_total) /
                          static_cast<double>(s.num_purchases);
    s.at_most_one_alternative_share =
        static_cast<double>(at_most_one) /
        static_cast<double>(s.num_purchases);
  }
  return s;
}

std::string ClickstreamStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "sessions=%zu purchases=%zu items=%zu clicks=%zu\n"
                "mean_alternatives=%.3f at_most_one_alternative=%.1f%%",
                num_sessions, num_purchases, num_items, num_clicks,
                mean_alternatives, at_most_one_alternative_share * 100.0);
  return buf;
}

}  // namespace prefcover
