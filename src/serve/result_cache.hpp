// The GraphService result cache: canonical keys + LRU eviction.
//
// CacheKey wraps algo::canonical_query_key over (code, *validated*
// params), so two submissions that run the same computation — whatever
// their param spelling, ordering, or reliance on defaults — share one
// entry, and two different computations can never collide (the encoding
// is injective on normalized params). The hash is computed once at key
// construction and is the hash the index uses: lookups never rehash the
// canonical string (equality only compares strings on a bucket
// collision).
//
// ResultCache is an LRU map from CacheKey to (checksum, translated
// payload) that owns the epoch of its entries: the live generation is
// valid for one snapshot version, lookups at any other version miss, and
// an insert or publish at a newer version opens a new generation,
// counting a wipe (`wipes()`) if the old one held entries. Within a
// generation, overflow evicts the least-recently-used entry, counted
// apart (`evictions()`). A capacity of 0 keeps at most one entry.
//
// It is deliberately NOT thread-safe: GraphService declares its instance
// `ResultCache cache_ GUARDED_BY(cache_mutex_)` (annotated_mutex.hpp),
// so the thread-safety analysis checks every touch on the owner's side.
//
// With `keep_stale`, a new generation retires the live one into a
// frozen stale generation instead of dropping it; find_stale() reads it
// without touching recency and names the epoch it was computed on.
// Refresh-on-publish takes the live entries out (begin_refresh),
// recomputes them outside the owner's lock, and puts the survivors back
// (finish_refresh). The cache records the permutation its payloads were
// translated under; a generation opened by an insert (a publish that
// bypassed the owner) has an unknown one, which refresh treats as
// changed.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/query.hpp"
#include "graph/permute.hpp"

namespace vebo::serve {

/// Canonical, pre-hashed cache key for one query's semantics.
struct CacheKey {
  std::string canon;
  std::size_t hash = 0;

  CacheKey() = default;
  /// `params` must already be schema-validated (default-filled and
  /// type-normalized); raw client params would key on spelling.
  static CacheKey make(std::string_view code,
                       const algo::QueryParams& validated_params);

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.canon == b.canon;
  }
};

/// Hasher reading the precomputed hash (see CacheKey::make).
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const { return k.hash; }
};

class ResultCache {
 public:
  struct Value {
    double checksum = 0;
    /// Payload in original vertex ids (translated before insertion);
    /// shared so concurrent hits hand out the same immutable object.
    std::shared_ptr<const algo::QueryPayload> payload;
    /// The query's identity, kept so refresh-on-publish can recompute
    /// the entry without reverse-engineering the canonical key: the
    /// algorithm code and the schema-validated params in ORIGINAL vertex
    /// ids (the client-visible form — sources get re-translated against
    /// whatever permutation the refreshing epoch publishes).
    std::string code;
    algo::QueryParams params;
  };

  explicit ResultCache(std::size_t capacity, bool keep_stale = false)
      : capacity_(capacity), keep_stale_(keep_stale) {}

  /// nullptr on miss; a hit bumps the entry to most-recently-used. The
  /// pointer is valid until the next non-const call.
  const Value* find(const CacheKey& key);
  /// find() iff the live generation is valid for `version`.
  const Value* find(std::uint64_t version, const CacheKey& key) {
    return version == version_ ? find(key) : nullptr;
  }

  /// Inserts (or refreshes) an entry, evicting the LRU entry when full.
  void insert(const CacheKey& key, Value v);
  /// insert() of an answer computed on `version`: dropped when older (a
  /// superseded graph must never come back), opening its generation
  /// with an unknown permutation when newer.
  void insert(std::uint64_t version, const CacheKey& key, Value v);

  /// Opens the generation for `version` (no-op when older) and records
  /// the permutation its payloads are translated under.
  void advance_to(std::uint64_t version,
                  std::shared_ptr<const Permutation> perm);

  /// Wipe of both generations; counts as neither wipe nor eviction.
  void clear();

  /// `value` is nullptr on a miss, else valid until the next non-const
  /// call; `version` is the epoch the stale generation was computed on.
  struct StaleHit {
    const Value* value = nullptr;
    std::uint64_t version = 0;
  };
  StaleHit find_stale(const CacheKey& key) const;

  /// One publish's refresh: the live entries it displaced, taken in LRU
  /// -> MRU order iff they belong to the epoch the delta steps from.
  struct Refresh {
    std::uint64_t version = 0;
    std::size_t displaced = 0;
    bool perm_stable = false;  ///< payloads translated under the new perm
    std::vector<std::pair<CacheKey, Value>> entries;
  };
  Refresh begin_refresh(std::uint64_t prev_version,
                        std::uint64_t new_version,
                        std::shared_ptr<const Permutation> perm);
  /// Reinserts r.entries (by now the recomputed survivors) unless a later
  /// generation superseded r.version, and counts a wipe if any displaced
  /// entry was not carried over. Returns the count reinserted.
  std::size_t finish_refresh(Refresh r);

  std::size_t size() const { return map_.size(); }
  std::size_t stale_size() const { return stale_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t wipes() const { return wipes_; }

 private:
  void open(std::uint64_t version);  ///< rotate or clear into `version`

  /// MRU-first recency list; entries point at their map key. Pointers to
  /// unordered_map elements are stable across rehash, so the back-
  /// pointers survive growth.
  using LruList = std::list<const CacheKey*>;
  struct Entry {
    Value value;
    LruList::iterator lru_pos;
  };

  std::size_t capacity_;
  bool keep_stale_;
  LruList lru_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
  /// Frozen previous generation (stale-serve). The Entry lru_pos
  /// iterators in here are dangling by construction — open() clears the
  /// recency list — and find_stale() never dereferences them.
  std::unordered_map<CacheKey, Entry, CacheKeyHash> stale_;
  std::uint64_t version_ = 0;        ///< epoch of the live generation
  std::uint64_t stale_version_ = 0;  ///< epoch of the stale generation
  std::shared_ptr<const Permutation> perm_;  ///< the live generation's
  bool perm_known_ = false;  ///< false when an insert opened it
  std::uint64_t evictions_ = 0;
  std::uint64_t wipes_ = 0;
};

}  // namespace vebo::serve
