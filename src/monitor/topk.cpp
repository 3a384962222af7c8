#include "monitor/topk.hpp"

namespace antarex::monitor {

TopK::TopK(std::size_t k) : k_(k) {
  ANTAREX_REQUIRE(k > 0, "TopK: need at least one slot");
  entries_.reserve(k);
}

void TopK::offer(u32 key, double weight) {
  ANTAREX_REQUIRE(weight >= 0.0, "TopK: negative weight");
  total_ += weight;
  const auto hit = std::find_if(entries_.begin(), entries_.end(),
                                [key](const Entry& e) { return e.key == key; });
  if (hit != entries_.end()) {
    hit->weight += weight;
    return;
  }
  if (entries_.size() < k_) {
    entries_.push_back(Entry{key, weight, 0.0});
    return;
  }
  // Evict the minimum (ties broken by highest key, so the survivor set is
  // deterministic) and let the newcomer inherit its count as error bound.
  std::size_t victim = 0;
  for (std::size_t j = 1; j < entries_.size(); ++j) {
    const Entry& e = entries_[j];
    const Entry& v = entries_[victim];
    if (e.weight < v.weight || (e.weight == v.weight && e.key > v.key))
      victim = j;
  }
  Entry& slot = entries_[victim];
  slot.error = slot.weight;
  slot.weight += weight;
  slot.key = key;
}

std::vector<TopK::Entry> TopK::ranked() const {
  std::vector<Entry> out = entries_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.key < b.key;
  });
  return out;
}

}  // namespace antarex::monitor
