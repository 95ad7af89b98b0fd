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
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace prefcover {

/// Dense item identifier within a clickstream's dictionary.
using ItemId = uint32_t;

/// Sentinel for "no item" (e.g. a session without a purchase).
inline constexpr ItemId kInvalidItem = 0xFFFFFFFFu;

/// \brief A read-only view of one session: what a Clickstream hands out
/// for each session it stores, and what a Session converts to. The spans
/// point into their owner and stay valid until it is next modified.
struct SessionView {
  /// Clicked items in click order. May repeat an item, and may include
  /// the purchased item (a click preceding its own purchase); graph
  /// construction excludes it from the alternative set.
  std::span<const ItemId> clicks;

  /// Dwell time per click, parallel to `clicks` (seconds spent viewing
  /// the item; negative when unknown). Either empty (no dwell data) or the
  /// same length as `clicks`. Dwell is the corrective signal the paper's
  /// Section 5.2 suggests for separating purchase intent from idle
  /// browsing.
  std::span<const double> dwell_seconds;

  /// The purchased item, or kInvalidItem for a browse-only session.
  ItemId purchase = kInvalidItem;

  bool HasPurchase() const { return purchase != kInvalidItem; }
  bool HasDwell() const { return !dwell_seconds.empty(); }

  /// Distinct clicked items other than the purchase, in first-click order
  /// — the session's implied alternatives.
  std::vector<ItemId> Alternatives() const;
};

/// \brief One consumer visit being assembled: clicked items plus at most
/// one purchase, with the fields SessionView describes. The clickstream
/// decoder and the session generator fill one Session per visit and
/// reuse it for the next.
struct Session {
  std::vector<ItemId> clicks;
  std::vector<double> dwell_seconds;  // empty or one per click
  ItemId purchase = kInvalidItem;

  bool HasPurchase() const { return purchase != kInvalidItem; }
  bool HasDwell() const { return !dwell_seconds.empty(); }

  /// Empties the session, keeping its capacity for the next visit.
  void Clear() {
    clicks.clear();
    dwell_seconds.clear();
    purchase = kInvalidItem;
  }

  operator SessionView() const { return {clicks, dwell_seconds, purchase}; }
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

  /// Name of an interned id, as a view into the dictionary that the next
  /// Intern may invalidate.
  std::string_view Name(ItemId id) const;

  size_t size() const { return name_offsets_.size() - 1; }

 private:
  /// One slot of the table: an interned id (kInvalidItem when empty)
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

  /// Name `id` without the bounds check.
  std::string_view NameAt(size_t id) const {
    return {chars_.data() + name_offsets_[id],
            name_offsets_[id + 1] - name_offsets_[id]};
  }

  // The names back to back, name i at [name_offsets_[i],
  // name_offsets_[i + 1]) of chars_: a name costs its bytes and one
  // offset, not a 32-byte string object, and growing copies bytes. The
  // in-memory reader's table of every session id (2M at paper scale) is
  // the largest dictionary, and with a vector of strings it set the
  // reader's peak memory.
  std::string chars_;
  std::vector<size_t> name_offsets_{0};  // size() + 1
  std::vector<Slot> slots_;  // power-of-two size, at most half full
};

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_SESSION_H_
