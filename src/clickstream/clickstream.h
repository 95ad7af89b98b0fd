// Clickstream dataset container and summary statistics (Table 2 fields).

#ifndef PREFCOVER_CLICKSTREAM_CLICKSTREAM_H_
#define PREFCOVER_CLICKSTREAM_CLICKSTREAM_H_

#include <cstdint>
#include <ranges>
#include <string>
#include <vector>

#include "clickstream/session.h"

namespace prefcover {

/// \brief Summary of a clickstream (the columns of the paper's Table 2,
/// plus diagnostics used for variant selection).
struct ClickstreamStats {
  size_t num_sessions = 0;
  size_t num_purchases = 0;     // sessions ending in a purchase
  size_t num_items = 0;         // distinct items seen (clicked or bought)
  size_t num_clicks = 0;        // total click events
  double mean_alternatives = 0.0;  // mean alternatives per purchase session

  /// Fraction of purchase sessions with at most one alternative clicked —
  /// the Normalized-variant fit measure (>= 0.9 recommends Normalized).
  double at_most_one_alternative_share = 0.0;

  std::string ToString() const;
};

/// \brief An in-memory clickstream: sessions plus the item dictionary.
///
/// The sessions are stored as one CSR: session s's clicks are
/// [click_offsets_[s], click_offsets_[s + 1]) of clicks_, with their dwell
/// times at the same indices of dwell_, and its purchase is purchases_[s].
/// A session costs 12 bytes plus 4 per click (12 per click with dwell),
/// and no allocation of its own.
///
/// Like the CSV's dwell column, dwell is kept for every click or for
/// none: once a session with dwell has been added, the clicks of every
/// session without it read as unknown dwell (-1), which counts and writes
/// as no dwell does.
class Clickstream {
 public:
  Clickstream() = default;

  /// Appends a copy of `session`, which must not view this clickstream.
  /// Item ids must come from mutable_dictionary().
  void AddSession(const SessionView& session);

  /// Pre-sizes the per-session arrays.
  void Reserve(size_t num_sessions);

  /// Session `s` (< NumSessions()), valid until the next AddSession.
  SessionView session(size_t s) const;

  /// Every session in order, as views: a random-access range.
  auto sessions() const {
    return std::views::iota(size_t{0}, NumSessions()) |
           std::views::transform([this](size_t s) { return session(s); });
  }

  const ItemDictionary& dictionary() const { return dictionary_; }
  ItemDictionary* mutable_dictionary() { return &dictionary_; }

  size_t NumSessions() const { return purchases_.size(); }
  size_t NumItems() const { return dictionary_.size(); }

  /// One-pass summary statistics.
  ClickstreamStats ComputeStats() const;

 private:
  std::vector<size_t> click_offsets_{0};  // NumSessions() + 1
  std::vector<ItemId> clicks_;
  std::vector<double> dwell_;  // empty, or one per entry of clicks_
  std::vector<ItemId> purchases_;
  ItemDictionary dictionary_;
};

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_CLICKSTREAM_H_
