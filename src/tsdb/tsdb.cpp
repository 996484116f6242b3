#include "tsdb/tsdb.hpp"

#include <algorithm>

namespace ruru {

std::optional<std::string> TagSet::get(const std::string& key) const {
  for (const auto& [k, v] : tags_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

void TagSet::normalize() const {
  if (normalized_) return;
  std::sort(tags_.begin(), tags_.end());
  normalized_ = true;
}

const std::string& TagSet::canonical() const {
  if (canonical_valid_) return canonical_;
  normalize();
  canonical_.clear();
  for (const auto& [k, v] : tags_) {
    if (!canonical_.empty()) canonical_.push_back(',');
    canonical_ += k;
    canonical_.push_back('=');
    canonical_ += v;
  }
  canonical_valid_ = true;
  return canonical_;
}

bool TagSet::matches(const TagSet& filter) const {
  for (const auto& [k, v] : filter.tags_) {
    const auto mine = get(k);
    if (!mine || *mine != v) return false;
  }
  return true;
}

}  // namespace ruru
