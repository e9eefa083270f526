#include "serve/result_cache.hpp"

namespace vebo::serve {

CacheKey CacheKey::make(std::string_view code,
                        const algo::QueryParams& validated_params) {
  CacheKey k;
  k.canon = algo::canonical_query_key(code, validated_params);
  k.hash = std::hash<std::string>{}(k.canon);
  return k;
}

const ResultCache::Value* ResultCache::find(const CacheKey& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // bump to MRU
  return &it->second.value;
}

void ResultCache::insert(const CacheKey& key, Value v) {
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.value = std::move(v);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  if (!lru_.empty() && map_.size() >= capacity_) {
    map_.erase(*lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  const auto ins = map_.emplace(key, Entry{std::move(v), {}});
  lru_.push_front(&ins.first->first);
  ins.first->second.lru_pos = lru_.begin();
}

void ResultCache::insert(std::uint64_t version, const CacheKey& key,
                         Value v) {
  if (version < version_) return;
  if (version > version_) {
    // A publish bypassed the owner (straight into the store): catch up
    // here. It told us nothing about its permutation.
    advance_to(version, nullptr);
    perm_known_ = false;
  }
  insert(key, std::move(v));
}

void ResultCache::advance_to(std::uint64_t version,
                             std::shared_ptr<const Permutation> perm) {
  if (version < version_) return;  // a later publish already advanced
  if (version > version_) {
    if (!map_.empty()) ++wipes_;
    open(version);
  }
  perm_ = std::move(perm);
  perm_known_ = true;
}

void ResultCache::open(std::uint64_t version) {
  // Rotate even an empty live generation: the retired generation must
  // never lag more than one epoch (no stale answer beats an ancient one).
  if (keep_stale_) {
    stale_ = std::move(map_);
    stale_version_ = version_;
  }
  map_.clear();  // moved-from maps are valid but unspecified; make empty
  lru_.clear();
  version_ = version;
}

void ResultCache::clear() {
  map_.clear();
  lru_.clear();
  stale_.clear();
}

ResultCache::StaleHit ResultCache::find_stale(const CacheKey& key) const {
  const auto it = stale_.find(key);
  if (it == stale_.end()) return {};
  return {&it->second.value, stale_version_};
}

ResultCache::Refresh ResultCache::begin_refresh(
    std::uint64_t prev_version, std::uint64_t new_version,
    std::shared_ptr<const Permutation> perm) {
  Refresh r;
  r.version = new_version;
  r.perm_stable = perm_known_ && (perm_ == nullptr || perm == nullptr
                                      ? perm_ == perm
                                      : *perm_ == *perm);
  if (new_version > version_) {
    r.displaced = map_.size();
    // A lagging generation holds entries for some OTHER epoch than the
    // one the delta steps from: those can only be dropped. Taken LRU
    // first, so reinserting in sequence keeps their recency.
    if (version_ == prev_version)
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it)
        r.entries.emplace_back(**it, map_.find(**it)->second.value);
    open(new_version);
  }
  if (new_version == version_) {
    perm_ = std::move(perm);
    perm_known_ = true;
  }
  return r;
}

std::size_t ResultCache::finish_refresh(Refresh r) {
  std::size_t reinserted = 0;
  if (version_ == r.version) {
    for (auto& [key, val] : r.entries) insert(key, std::move(val));
    reinserted = r.entries.size();
  }
  // One wipe per publish that dropped anything — the same per-wipe (not
  // per-entry) accounting advance_to() keeps.
  if (r.displaced > reinserted) ++wipes_;
  return reinserted;
}

}  // namespace vebo::serve
