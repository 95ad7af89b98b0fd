#include "clickstream/session.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace prefcover {

std::vector<ItemId> SessionView::Alternatives() const {
  std::vector<ItemId> alts;
  alts.reserve(clicks.size());
  for (ItemId item : clicks) {
    if (item == purchase) continue;
    if (std::find(alts.begin(), alts.end(), item) != alts.end()) continue;
    alts.push_back(item);
  }
  return alts;
}

namespace {

uint32_t NameTag(std::string_view name) {
  return static_cast<uint32_t>(std::hash<std::string_view>()(name));
}

}  // namespace

size_t ItemDictionary::Find(std::string_view name, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidItem ||
        (slot.tag == tag && NameAt(slot.id) == name)) {
      return i;
    }
  }
}

ItemId ItemDictionary::Intern(std::string_view name) {
  if (2 * (size() + 1) > slots_.size()) {
    // Double the table (from 1024 slots) and re-place every id from its
    // tag, which is where its probe starts, without rehashing a name.
    std::vector<Slot> old(std::max<size_t>(1024, 2 * slots_.size()));
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kInvalidItem) continue;
      size_t i = slot.tag & mask;
      while (slots_[i].id != kInvalidItem) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }
  const uint32_t tag = NameTag(name);
  Slot& slot = slots_[Find(name, tag)];
  if (slot.id == kInvalidItem) {
    PREFCOVER_CHECK_MSG(size() < kInvalidItem, "item dictionary is full");
    slot = {static_cast<ItemId>(size()), tag};
    chars_.append(name);
    name_offsets_.push_back(chars_.size());
  }
  return slot.id;
}

ItemId ItemDictionary::Lookup(std::string_view name) const {
  if (slots_.empty()) return kInvalidItem;
  return slots_[Find(name, NameTag(name))].id;
}

std::string_view ItemDictionary::Name(ItemId id) const {
  PREFCOVER_CHECK(id < size());
  return NameAt(id);
}

}  // namespace prefcover
