// Session model for clickstream data (paper Section 5.2).
//
// A session groups the browsing events of one consumer visit. Following the
// paper's assumptions, only the minimal signal most platforms have is
// modeled: which items were clicked and which single item (if any) was
// purchased. Sessions ending without a purchase carry no buying intent and
// are ignored by graph construction, but are kept so dataset statistics
// (Table 2) can report total session counts.

#ifndef PREFCOVER_CLICKSTREAM_SESSION_H_
#define PREFCOVER_CLICKSTREAM_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace prefcover {

/// Dense item identifier within a clickstream's dictionary.
using ItemId = uint32_t;

/// Sentinel for "no item" (e.g. a session without a purchase).
inline constexpr ItemId kInvalidItem = 0xFFFFFFFFu;

/// \brief One consumer visit: clicked items plus at most one purchase.
struct Session {
  /// Distinct clicked items, in click order. May include the purchased
  /// item (a click preceding its own purchase); graph construction excludes
  /// it from the alternative set.
  std::vector<ItemId> clicks;

  /// Optional dwell time per click, parallel to `clicks` (seconds spent
  /// viewing the item). Either empty (unknown) or the same length as
  /// `clicks`. Dwell is the corrective signal the paper's Section 5.2
  /// suggests for separating purchase intent from idle browsing.
  std::vector<double> dwell_seconds;

  /// The purchased item, or kInvalidItem for a browse-only session.
  ItemId purchase = kInvalidItem;

  bool HasPurchase() const { return purchase != kInvalidItem; }
  bool HasDwell() const { return !dwell_seconds.empty(); }

  /// Distinct clicked items other than the purchase — the session's
  /// implied alternatives.
  std::vector<ItemId> Alternatives() const;
};

/// \brief Bidirectional mapping between external item names (SKUs) and
/// dense ItemIds.
///
/// Ids are handed out in first-seen order. Names are found through one
/// flat open-addressing table of ids, so interning a name already seen
/// (the common case when decoding a clickstream) hashes the view once and
/// allocates nothing.
class ItemDictionary {
 public:
  /// Returns the id of `name`, interning it on first sight.
  ItemId Intern(std::string_view name);

  /// Id of `name` or kInvalidItem when unknown.
  ItemId Lookup(std::string_view name) const;

  /// Name of an interned id.
  const std::string& Name(ItemId id) const;

  size_t size() const { return names_.size(); }

 private:
  /// One slot of the table: an id of names_ (kInvalidItem when empty)
  /// and its name's 32-bit hash, the tag. A probe starts at the tag's
  /// low bits and passes over other names by their tags, rarely reading
  /// one.
  struct Slot {
    ItemId id = kInvalidItem;
    uint32_t tag = 0;
  };

  /// Index of the slot holding `name` (whose tag is `tag`), or of the
  /// empty slot that ends its probe. The table must not be empty.
  size_t Find(std::string_view name, uint32_t tag) const;

  std::vector<std::string> names_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
};

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_SESSION_H_
