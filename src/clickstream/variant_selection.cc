#include "clickstream/variant_selection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

namespace prefcover {

namespace {

// A 0/1 variable that is 1 in `ones` of `n` > 0 observations: P(0), P(1)
// and its entropy.
struct BinaryMarginal {
  double p[2];
  double entropy;
};

BinaryMarginal MarginalOf(uint64_t ones, uint64_t n) {
  const double total = static_cast<double>(n);
  BinaryMarginal m;
  m.p[0] = static_cast<double>(n - ones) / total;
  m.p[1] = static_cast<double>(ones) / total;
  m.entropy = 0.0;
  for (int i = 0; i < 2; ++i) {
    if (m.p[i] > 0.0) m.entropy -= m.p[i] * std::log(m.p[i]);
  }
  return m;
}

// The NMI of X and Y from their joint counts over `n` observations and
// their marginals, which IndependenceMeasure takes once per alternative
// rather than once per pair.
double NmiOfMarginals(const uint64_t counts[2][2], double n,
                      const BinaryMarginal& x, const BinaryMarginal& y) {
  if (x.entropy <= 0.0 || y.entropy <= 0.0) return 0.0;
  double mi = 0.0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      if (counts[a][b] == 0) continue;
      double pxy = static_cast<double>(counts[a][b]) / n;
      mi += pxy * std::log(pxy / (x.p[a] * y.p[b]));
    }
  }
  if (mi < 0.0) mi = 0.0;  // fp noise
  double nmi = mi / std::sqrt(x.entropy * y.entropy);
  return nmi > 1.0 ? 1.0 : nmi;
}

}  // namespace

double BinaryNormalizedMutualInformation(const uint64_t counts[2][2]) {
  uint64_t total = 0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) total += counts[x][y];
  }
  if (total == 0) return 0.0;
  return NmiOfMarginals(counts, static_cast<double>(total),
                        MarginalOf(counts[1][0] + counts[1][1], total),
                        MarginalOf(counts[0][1] + counts[1][1], total));
}

double NormalizedFitShare(const Clickstream& clickstream) {
  return clickstream.ComputeStats().at_most_one_alternative_share;
}

double IndependenceMeasure(const Clickstream& clickstream,
                           size_t max_alternatives_per_item) {
  // Group purchase sessions, by index, by purchased item.
  std::unordered_map<ItemId, std::vector<size_t>> by_purchase;
  uint64_t total_purchases = 0;
  size_t id_bound = 0;
  for (size_t s = 0; s < clickstream.NumSessions(); ++s) {
    const SessionView session = clickstream.session(s);
    if (!session.HasPurchase()) continue;
    by_purchase[session.purchase].push_back(s);
    ++total_purchases;
    for (ItemId click : session.clicks) {
      id_bound = std::max<size_t>(id_bound, size_t{click} + 1);
    }
  }
  if (total_purchases == 0) return 0.0;

  // Scratch indexed by ItemId, restored after each item: how many of the
  // item's sessions clicked the alternative, the last session that counted
  // it (so a repeated click counts once), and its rank in the capped top
  // list (kNone outside it).
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<uint64_t> click_count(id_bound, 0);
  std::vector<size_t> counted_by(id_bound, kNone);
  std::vector<size_t> rank(id_bound, kNone);
  std::vector<ItemId> clicked;
  std::vector<std::pair<ItemId, uint64_t>> top;
  std::vector<size_t> hits;
  std::vector<size_t> hit_by;
  std::vector<uint64_t> joint;
  std::vector<BinaryMarginal> marginal;

  double weighted_sum = 0.0;
  for (const auto& [item, sessions] : by_purchase) {
    // Pass 1: distinct-click frequency per alternative of this item.
    clicked.clear();
    for (size_t s : sessions) {
      for (ItemId alt : clickstream.session(s).clicks) {
        if (alt == item || counted_by[alt] == s) continue;
        counted_by[alt] = s;
        if (click_count[alt]++ == 0) clicked.push_back(alt);
      }
    }
    top.clear();
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
    hit_by.assign(k, kNone);
    for (size_t s : sessions) {
      hits.clear();
      for (ItemId alt : clickstream.session(s).clicks) {
        const size_t r = rank[alt];
        if (r == kNone || hit_by[r] == s) continue;
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
    for (const auto& [alt, count] : top) rank[alt] = kNone;

    // Pairwise NMI over the alternatives' click indicators, conditioned on
    // this item being purchased. Each alternative's marginal depends only
    // on its own count, so it is taken once here rather than per pair.
    const uint64_t n = sessions.size();
    marginal.clear();
    for (const auto& [alt, count] : top) {
      marginal.push_back(MarginalOf(count, n));
    }
    // A pair's NMI depends only on (n, ci, cj, cij), and top lists equal
    // counts side by side, so a pair that repeats the previous pair of
    // its row in cj and cij reuses its value.
    double pair_sum = 0.0;
    size_t pair_count = 0;
    for (size_t i = 0; i < k; ++i) {
      const uint64_t ci = top[i].second;
      double nmi = 0.0;
      for (size_t j = i + 1; j < k; ++j) {
        const uint64_t cj = top[j].second;
        const uint64_t cij = joint[i * k + j];
        if (j == i + 1 || cj != top[j - 1].second ||
            cij != joint[i * k + j - 1]) {
          const uint64_t counts[2][2] = {{n - ci - cj + cij, cj - cij},
                                         {ci - cij, cij}};
          nmi = NmiOfMarginals(counts, static_cast<double>(n), marginal[i],
                               marginal[j]);
        }
        pair_sum += nmi;
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
