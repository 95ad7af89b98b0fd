#include "clickstream/clickstream.h"

#include <cstdio>
#include <vector>

namespace prefcover {

ClickstreamStats Clickstream::ComputeStats() const {
  ClickstreamStats s;
  s.num_sessions = sessions_.size();
  s.num_items = dictionary_.size();
  size_t alternative_total = 0;
  size_t at_most_one = 0;
  // The session that last counted each item, so that a repeated click
  // counts once: alts is Alternatives().size() without building the list.
  std::vector<const Session*> counted_by(dictionary_.size(), nullptr);
  for (const Session& session : sessions_) {
    s.num_clicks += session.clicks.size();
    if (!session.HasPurchase()) continue;
    ++s.num_purchases;
    size_t alts = 0;
    for (ItemId item : session.clicks) {
      if (item == session.purchase) continue;
      if (item >= counted_by.size()) counted_by.resize(size_t{item} + 1);
      if (counted_by[item] == &session) continue;
      counted_by[item] = &session;
      ++alts;
    }
    alternative_total += alts;
    if (alts <= 1) ++at_most_one;
  }
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
