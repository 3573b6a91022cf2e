// The one bounded per-key cache (DESIGN.md §8): a sharded, thread-safe LRU
// from keys to shared values, behind the Planner's sessions and every
// per-key store of `h2h serve`. Keys hash to shards (Hash picks the shard,
// Key needs ==), each a most-recently-used-first list under its own mutex,
// held only to scan, insert and evict; callers build values outside it, and
// when two builds of one key race the first insert wins. Capacity is
// ceil(capacity / shards) per shard, enforced after each insert (shards = 1
// is an exact global LRU). Values are handed out as shared_ptr, so a holder
// keeps an evicted or cleared value alive until it lets go.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace h2h {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SessionStore {
  struct Noop {
    void operator()(Value&) const noexcept {}
  };

 public:
  using Ptr = std::shared_ptr<Value>;

  SessionStore(std::size_t capacity, std::size_t shards)
      : shard_count_(std::max<std::size_t>(1, shards)),
        per_shard_((std::max<std::size_t>(1, capacity) + shard_count_ - 1) /
                   shard_count_),
        shards_(std::make_unique<Shard[]>(shard_count_)) {}

  /// The value under `key`, now the most recently used, or null. On a hit,
  /// `on_hit(Value&)` runs under the shard lock before the value is handed
  /// out. Counts one hit or one miss.
  template <typename OnHit = Noop>
  [[nodiscard]] Ptr find(const Key& key, OnHit&& on_hit = {}) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    Ptr hit = touch(shard, key, on_hit);
    ++(hit ? shard.hits : shard.misses);
    return hit;
  }

  /// Inserts `value` unless `key` is present and returns what the store now
  /// holds for `key`: `value`, or the earlier insert that won a racing build
  /// (`on_hit` runs on it as in find).
  template <typename OnHit = Noop>
  [[nodiscard]] Ptr insert(const Key& key, Ptr value, OnHit&& on_hit = {}) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    if (Ptr winner = touch(shard, key, on_hit)) return winner;
    return put(shard, key, std::move(value));
  }

  /// Inserts `value` under `key`, dropping whatever was there.
  void replace(const Key& key, Ptr value) {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mu);
    std::erase_if(shard.lru, [&key](const Entry& e) { return e.first == key; });
    (void)put(shard, key, std::move(value));
  }

  /// Entries across all shards (a snapshot under concurrent traffic).
  [[nodiscard]] std::size_t size() const noexcept {
    return sum([](const Shard& shard) { return shard.lru.size(); });
  }
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return sum([](const Shard& shard) { return shard.hits; });
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return sum([](const Shard& shard) { return shard.misses; });
  }

  /// Drops every entry; values still held elsewhere stay alive.
  void clear() noexcept {
    for (std::size_t i = 0; i < shard_count_; ++i) {
      const std::lock_guard<std::mutex> lock(shards_[i].mu);
      shards_[i].lru.clear();
    }
  }

 private:
  using Entry = std::pair<Key, Ptr>;
  struct Shard {
    std::mutex mu;
    std::vector<Entry> lru;  // most recently used first
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  [[nodiscard]] Shard& shard_for(const Key& key) const noexcept {
    return shards_[Hash{}(key) % shard_count_];
  }

  /// Moves `key`'s entry to the front and runs `on_hit` on it; null when
  /// absent. Caller holds shard.mu.
  template <typename OnHit>
  [[nodiscard]] static Ptr touch(Shard& shard, const Key& key,
                                 OnHit&& on_hit) {
    const auto it =
        std::find_if(shard.lru.begin(), shard.lru.end(),
                     [&key](const Entry& e) { return e.first == key; });
    if (it == shard.lru.end()) return nullptr;
    std::rotate(shard.lru.begin(), it, it + 1);
    on_hit(*shard.lru.front().second);
    return shard.lru.front().second;
  }

  /// Inserts at the front, then evicts the least recently used entry if the
  /// shard is over capacity. Caller holds shard.mu.
  Ptr put(Shard& shard, const Key& key, Ptr value) {
    shard.lru.emplace(shard.lru.begin(), key, std::move(value));
    if (shard.lru.size() > per_shard_) shard.lru.pop_back();
    return shard.lru.front().second;
  }

  template <typename Count>
  [[nodiscard]] std::uint64_t sum(Count count) const noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < shard_count_; ++i) {
      const std::lock_guard<std::mutex> lock(shards_[i].mu);
      n += count(shards_[i]);
    }
    return n;
  }

  std::size_t shard_count_;
  std::size_t per_shard_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace h2h
