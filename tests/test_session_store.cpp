// The bounded per-key cache (util/session_store.h) on its own, with one
// shard so the global LRU order is exact: eviction order, first-insert-wins
// on a racing build, holders outliving eviction and clear, the on-hit
// callable, and the hit/miss counters. Its two users are covered elsewhere:
// PlannerCache / PlannerConcurrency for the Planner, ServeRepair and
// ServePipeline for the serve stores.
#include "util/session_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace h2h {
namespace {

/// Key k lives in shard k % shards, so multi-shard layouts are exact.
struct IdentityHash {
  std::size_t operator()(int key) const noexcept {
    return static_cast<std::size_t>(key);
  }
};
using Store = SessionStore<int, std::string, IdentityHash>;

[[nodiscard]] std::shared_ptr<std::string> value(const char* s) {
  return std::make_shared<std::string>(s);
}

TEST(SessionStore, EvictsLeastRecentlyUsedInExactOrder) {
  Store store(3, 1);
  (void)store.insert(1, value("a"));
  (void)store.insert(2, value("b"));
  (void)store.insert(3, value("c"));
  ASSERT_NE(store.find(1), nullptr);  // order now 1, 3, 2
  (void)store.insert(4, value("d"));  // evicts 2
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_EQ(store.size(), 3u);
  (void)store.insert(5, value("e"));  // order was 4, 1, 3: evicts 3
  EXPECT_EQ(store.find(3), nullptr);
  (void)store.insert(6, value("f"));  // order was 5, 4, 1: evicts 1
  EXPECT_EQ(store.find(1), nullptr);
  for (const int key : {4, 5, 6}) EXPECT_NE(store.find(key), nullptr) << key;
  EXPECT_EQ(store.size(), 3u);
}

TEST(SessionStore, ReplaceOverwritesWithoutEvicting) {
  Store store(2, 1);
  (void)store.insert(1, value("a"));
  (void)store.insert(2, value("b"));
  store.replace(1, value("A"));  // now the most recently used
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(*store.find(1), "A");
  EXPECT_EQ(*store.find(2), "b");
  store.replace(3, value("c"));  // absent: inserts and evicts 1
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_EQ(*store.find(3), "c");
}

TEST(SessionStore, RacingInsertReturnsTheFirstValue) {
  Store store(4, 1);
  const auto first = value("first");
  EXPECT_EQ(store.insert(7, first), first);
  int on_hit_calls = 0;
  const auto second = store.insert(7, value("second"),
                                   [&](std::string&) { ++on_hit_calls; });
  EXPECT_EQ(second, first);
  EXPECT_EQ(on_hit_calls, 1);
  EXPECT_EQ(store.size(), 1u);

  // Many threads racing one cold key all receive the same winner.
  Store raced(4, 1);
  std::vector<std::shared_ptr<std::string>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] {
      got[i] = raced.insert(1, value(std::to_string(i).c_str()));
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g, got.front());
  EXPECT_EQ(raced.find(1), got.front());
}

TEST(SessionStore, HeldValueSurvivesEviction) {
  Store store(1, 1);
  const std::shared_ptr<std::string> held = store.insert(1, value("kept"));
  (void)store.insert(2, value("newer"));  // evicts 1
  EXPECT_EQ(store.find(1), nullptr);
  ASSERT_EQ(held.use_count(), 1);  // the store let go; the holder did not
  EXPECT_EQ(*held, "kept");
}

TEST(SessionStore, ClearWhileHoldersAreLive) {
  Store store(4, 2);
  const auto a = store.insert(1, value("a"));
  const auto b = store.insert(2, value("b"));
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_EQ(*a, "a");
  EXPECT_EQ(*b, "b");
  EXPECT_EQ(a.use_count(), 1);
  // The cleared store takes new values under the old keys.
  EXPECT_EQ(*store.insert(1, value("a2")), "a2");
}

TEST(SessionStore, CountsHitsAndMissesOnFindOnly) {
  Store store(2, 1);
  EXPECT_EQ(store.find(1), nullptr);  // miss
  (void)store.insert(1, value("a"));
  (void)store.insert(1, value("x"));  // lost race: no count
  store.replace(1, value("b"));       // no count
  int on_hit_calls = 0;
  const auto hit = store.find(1, [&](std::string& v) {
    ++on_hit_calls;
    v += "!";
  });
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "b!");  // on_hit ran on the stored value before hand-out
  EXPECT_EQ(on_hit_calls, 1);
  EXPECT_EQ(store.find(2), nullptr);  // miss
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 2u);
}

TEST(SessionStore, CapacityIsCeilingPerShard) {
  // 5 across 2 shards holds at most 3 per shard; a zero capacity or shard
  // count still keeps one entry.
  Store store(5, 2);
  for (int key = 0; key < 100; ++key) (void)store.insert(key, value("v"));
  EXPECT_EQ(store.size(), 6u);  // even and odd keys, 3 each
  Store tiny(0, 0);
  (void)tiny.insert(1, value("a"));
  (void)tiny.insert(2, value("b"));
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_NE(tiny.find(2), nullptr);
}

}  // namespace
}  // namespace h2h
