#include "clickstream/variant_selection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

namespace prefcover {

double BinaryNormalizedMutualInformation(const uint64_t counts[2][2]) {
  uint64_t total = 0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) total += counts[x][y];
  }
  if (total == 0) return 0.0;
  double n = static_cast<double>(total);
  double px[2] = {
      static_cast<double>(counts[0][0] + counts[0][1]) / n,
      static_cast<double>(counts[1][0] + counts[1][1]) / n,
  };
  double py[2] = {
      static_cast<double>(counts[0][0] + counts[1][0]) / n,
      static_cast<double>(counts[0][1] + counts[1][1]) / n,
  };
  auto entropy = [](const double p[2]) {
    double h = 0.0;
    for (int i = 0; i < 2; ++i) {
      if (p[i] > 0.0) h -= p[i] * std::log(p[i]);
    }
    return h;
  };
  double hx = entropy(px);
  double hy = entropy(py);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double mi = 0.0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      if (counts[x][y] == 0) continue;
      double pxy = static_cast<double>(counts[x][y]) / n;
      mi += pxy * std::log(pxy / (px[x] * py[y]));
    }
  }
  if (mi < 0.0) mi = 0.0;  // fp noise
  double nmi = mi / std::sqrt(hx * hy);
  return nmi > 1.0 ? 1.0 : nmi;
}

double NormalizedFitShare(const Clickstream& clickstream) {
  return clickstream.ComputeStats().at_most_one_alternative_share;
}

double IndependenceMeasure(const Clickstream& clickstream,
                           size_t max_alternatives_per_item) {
  // Group purchase sessions by purchased item.
  std::unordered_map<ItemId, std::vector<const Session*>> by_purchase;
  uint64_t total_purchases = 0;
  size_t id_bound = 0;
  for (const Session& session : clickstream.sessions()) {
    if (!session.HasPurchase()) continue;
    by_purchase[session.purchase].push_back(&session);
    ++total_purchases;
    for (ItemId click : session.clicks) {
      id_bound = std::max<size_t>(id_bound, size_t{click} + 1);
    }
  }
  if (total_purchases == 0) return 0.0;

  // Scratch indexed by ItemId, restored after each item: how many of the
  // item's sessions clicked the alternative, the last session that counted
  // it (so a repeated click counts once), and its rank in the capped top
  // list (kUnranked outside it).
  constexpr size_t kUnranked = std::numeric_limits<size_t>::max();
  std::vector<uint64_t> click_count(id_bound, 0);
  std::vector<const Session*> counted_by(id_bound, nullptr);
  std::vector<size_t> rank(id_bound, kUnranked);
  std::vector<ItemId> clicked;
  std::vector<size_t> hits;
  std::vector<const Session*> hit_by;
  std::vector<uint64_t> joint;

  double weighted_sum = 0.0;
  for (const auto& [item, sessions] : by_purchase) {
    // Pass 1: distinct-click frequency per alternative of this item.
    clicked.clear();
    for (const Session* s : sessions) {
      for (ItemId alt : s->clicks) {
        if (alt == s->purchase || counted_by[alt] == s) continue;
        counted_by[alt] = s;
        if (click_count[alt]++ == 0) clicked.push_back(alt);
      }
    }
    std::vector<std::pair<ItemId, uint64_t>> top;
    top.reserve(clicked.size());
    for (ItemId alt : clicked) {
      top.emplace_back(alt, click_count[alt]);
      click_count[alt] = 0;
    }
    if (top.size() < 2) continue;  // no pairs -> contributes 0

    // Keep the most clicked alternatives, capped.
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (top.size() > max_alternatives_per_item) {
      top.resize(max_alternatives_per_item);
    }

    // Pass 2: joint[i * k + j] (i < j) counts the sessions that clicked
    // both top[i] and top[j]; top[i].second already counts those that
    // clicked top[i].
    const size_t k = top.size();
    for (size_t i = 0; i < k; ++i) rank[top[i].first] = i;
    joint.assign(k * k, 0);
    hit_by.assign(k, nullptr);
    for (const Session* s : sessions) {
      hits.clear();
      for (ItemId alt : s->clicks) {
        const size_t r = rank[alt];
        if (r == kUnranked || hit_by[r] == s) continue;
        hit_by[r] = s;
        hits.push_back(r);
      }
      for (size_t a = 0; a < hits.size(); ++a) {
        for (size_t b = a + 1; b < hits.size(); ++b) {
          ++joint[std::min(hits[a], hits[b]) * k +
                  std::max(hits[a], hits[b])];
        }
      }
    }
    for (const auto& [alt, count] : top) rank[alt] = kUnranked;

    // Pairwise NMI over the alternatives' click indicators, conditioned on
    // this item being purchased.
    const uint64_t n = sessions.size();
    double pair_sum = 0.0;
    size_t pair_count = 0;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        const uint64_t ci = top[i].second;
        const uint64_t cj = top[j].second;
        const uint64_t cij = joint[i * k + j];
        const uint64_t counts[2][2] = {{n - ci - cj + cij, cj - cij},
                                       {ci - cij, cij}};
        pair_sum += BinaryNormalizedMutualInformation(counts);
        ++pair_count;
      }
    }
    double item_avg = pair_count == 0 ? 0.0
                                      : pair_sum /
                                            static_cast<double>(pair_count);
    // Purchase-share weighting = node-weight weighting of the paper.
    weighted_sum += item_avg * static_cast<double>(sessions.size()) /
                    static_cast<double>(total_purchases);
  }
  return weighted_sum;
}

std::string VariantRecommendation::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "variant=%s normalized_fit=%.3f (%s) independence=%.3f (%s)",
                std::string(VariantName(variant)).c_str(), normalized_fit,
                normalized_fits ? "fits" : "does not fit", independence,
                independent_fits ? "fits" : "does not fit");
  return buf;
}

VariantRecommendation RecommendVariant(
    const Clickstream& clickstream, const VariantSelectionOptions& options) {
  VariantRecommendation rec;
  rec.normalized_fit = NormalizedFitShare(clickstream);
  rec.independence =
      IndependenceMeasure(clickstream, options.max_alternatives_per_item);
  rec.normalized_fits = rec.normalized_fit >= options.normalized_fit_threshold;
  rec.independent_fits = rec.independence < options.independence_threshold;
  // Normalized is the stricter, more specific model; prefer it when the
  // data genuinely has the "at most one alternative" shape.
  if (rec.normalized_fits) {
    rec.variant = Variant::kNormalized;
  } else {
    rec.variant = Variant::kIndependent;
  }
  return rec;
}

}  // namespace prefcover
