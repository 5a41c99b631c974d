// Memo tests (label: engine, so the tsan and ubsan presets run them): the
// engine's one cache type, used here directly with evidence-assignment
// keys. Hits, misses and entries; a rejected entry that is rebuilt and
// overwritten; peek counting nothing; reset_stats, clear and the registry
// mirrors; 10^4 distinct assignments with exact counts; and concurrent
// get/peek over overlapping keys, where the first insert wins. Then Lazy,
// which holds the engine's network plan, compiled tree and state table:
// a throwing build stores nothing, ready() waits for a successful build,
// and racing first callers share one build.
#include "bayesnet/memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bayesnet/network.hpp"
#include "obs/registry.hpp"

namespace bn = sysuq::bayesnet;
namespace obs = sysuq::obs;

namespace {

using Key = std::vector<std::pair<bn::VariableId, std::size_t>>;
using Value = std::shared_ptr<const std::size_t>;
using TestMemo = bn::Memo<Key, Value>;

// A builder that counts its calls and returns `v`.
auto builds(std::size_t& calls, std::size_t v) {
  return [&calls, v] {
    ++calls;
    return std::make_shared<const std::size_t>(v);
  };
}

void expect_stats(const TestMemo& memo, std::size_t hits, std::size_t misses,
                  std::size_t entries) {
  const bn::CacheStats s = memo.stats();
  EXPECT_EQ(s.hits, hits);
  EXPECT_EQ(s.misses, misses);
  EXPECT_EQ(s.entries, entries);
}

}  // namespace

TEST(Memo, CountsHitsMissesAndEntries) {
  TestMemo memo("test.memo.counts");
  std::size_t calls = 0;
  const Value first = memo.get({{0, 1}}, builds(calls, 1));
  const Value again = memo.get({{0, 1}}, builds(calls, 2));
  EXPECT_EQ(again, first);  // a hit returns the stored value, building nothing
  EXPECT_EQ(calls, 1u);
  expect_stats(memo, 1, 1, 1);

  // Every id and every state counts: these keys are all distinct.
  EXPECT_EQ(*memo.get({{1, 0}}, builds(calls, 3)), 3u);
  EXPECT_EQ(*memo.get({{0, 0}}, builds(calls, 4)), 4u);
  EXPECT_EQ(*memo.get({{1, 1}}, builds(calls, 5)), 5u);
  EXPECT_EQ(*memo.get({{0, 1}, {1, 1}}, builds(calls, 6)), 6u);
  EXPECT_EQ(*memo.get({}, builds(calls, 7)), 7u);
  EXPECT_EQ(calls, 6u);
  expect_stats(memo, 1, 6, 6);
  EXPECT_EQ(*memo.get({{0, 1}, {1, 1}}, builds(calls, 8)), 6u);
  EXPECT_EQ(*memo.get({}, builds(calls, 9)), 7u);
  expect_stats(memo, 3, 6, 6);
}

TEST(Memo, RejectedEntryIsRebuiltAndOverwritten) {
  TestMemo memo("test.memo.accept");
  const Key key{{2, 0}, {5, 1}};
  std::size_t calls = 0;
  (void)memo.get(key, builds(calls, 1));
  const auto at_least_two = [](const Value& v) { return *v >= 2; };

  // The stored 1 is rejected: a miss whose builder learns the entry is
  // stale, and the value it builds replaces the entry.
  bool saw_stale = false;
  const Value rebuilt = memo.get(key, at_least_two, [&](bool stale) {
    saw_stale = stale;
    return std::make_shared<const std::size_t>(2);
  });
  EXPECT_TRUE(saw_stale);
  EXPECT_EQ(*rebuilt, 2u);
  expect_stats(memo, 0, 2, 1);
  EXPECT_EQ(memo.peek(key).value(), rebuilt);

  // Accepted now: a hit, and the builder does not run.
  const Value hit = memo.get(key, at_least_two, [](bool) -> Value {
    ADD_FAILURE() << "an accepted entry must not be rebuilt";
    return nullptr;
  });
  EXPECT_EQ(hit, rebuilt);
  expect_stats(memo, 1, 2, 1);

  // A key with no entry is a miss that is not stale.
  saw_stale = true;
  (void)memo.get({{2, 1}}, at_least_two, [&](bool stale) {
    saw_stale = stale;
    return std::make_shared<const std::size_t>(3);
  });
  EXPECT_FALSE(saw_stale);
  expect_stats(memo, 1, 3, 2);
}

TEST(Memo, PeekCountsNothing) {
  TestMemo memo("test.memo.peek");
  auto& hits = obs::Registry::global().counter("test.memo.peek.hits");
  auto& misses = obs::Registry::global().counter("test.memo.peek.misses");
  const auto hits0 = hits.value(), misses0 = misses.value();
  EXPECT_FALSE(memo.peek({{0, 1}}).has_value());
  expect_stats(memo, 0, 0, 0);
  std::size_t calls = 0;
  const Value stored = memo.get({{0, 1}}, builds(calls, 4));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(memo.peek({{0, 1}}).value(), stored);
  EXPECT_FALSE(memo.peek({{0, 0}}).has_value());
  expect_stats(memo, 0, 1, 1);
  EXPECT_EQ(hits.value() - hits0, 0u);
  EXPECT_EQ(misses.value() - misses0, obs::metrics_enabled() ? 1u : 0u);
}

TEST(Memo, ResetStatsAndClearAgainstTheRegistryMirrors) {
  auto& reg = obs::Registry::global();
  auto& hits = reg.counter("test.memo.mirror.hits");
  auto& misses = reg.counter("test.memo.mirror.misses");
  auto& entries = reg.gauge("test.memo.mirror.entries");
  const auto hits0 = hits.value(), misses0 = misses.value();
  const std::uint64_t on = obs::metrics_enabled() ? 1 : 0;

  TestMemo memo("test.memo.mirror");
  std::size_t calls = 0;
  (void)memo.get({{0, 1}}, builds(calls, 1));
  (void)memo.get({{0, 1}}, builds(calls, 1));
  (void)memo.get({{3, 2}}, builds(calls, 2));
  expect_stats(memo, 1, 2, 2);
  EXPECT_EQ(hits.value() - hits0, on * 1);
  EXPECT_EQ(misses.value() - misses0, on * 2);
  EXPECT_EQ(entries.value(), static_cast<double>(on * 2));

  // reset_stats zeroes the memo's own counts and keeps its entries; the
  // registry counters count since the process started and keep going.
  memo.reset_stats();
  expect_stats(memo, 0, 0, 2);
  (void)memo.get({{3, 2}}, builds(calls, 2));
  expect_stats(memo, 1, 0, 2);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(hits.value() - hits0, on * 2);

  // clear drops every entry and zeroes the counts and the entries gauge.
  memo.clear();
  expect_stats(memo, 0, 0, 0);
  EXPECT_EQ(entries.value(), 0.0);
  EXPECT_FALSE(memo.peek({{0, 1}}).has_value());
  (void)memo.get({{0, 1}}, builds(calls, 1));
  EXPECT_EQ(calls, 3u);
  expect_stats(memo, 0, 1, 1);
  EXPECT_EQ(misses.value() - misses0, on * 3);
  EXPECT_EQ(entries.value(), static_cast<double>(on * 1));
}

TEST(Memo, TenThousandDistinctAssignmentsKeepExactCounts) {
  // Assignment i observes variable 0 at state i / 100 and variable 1 at
  // i % 100, and every tenth also variable 7: 10^4 distinct keys. Each
  // reads back its own value, however the hash spreads them.
  constexpr std::size_t kKeys = 10000;
  const auto key_of = [](std::size_t i) {
    Key key{{0, i / 100}, {1, i % 100}};
    if (i % 10 == 0) key.emplace_back(7, i % 3);
    return key;
  };
  TestMemo memo("test.memo.many");
  std::size_t calls = 0;
  for (std::size_t i = 0; i < kKeys; ++i)
    ASSERT_EQ(*memo.get(key_of(i), builds(calls, i)), i);
  expect_stats(memo, 0, kKeys, kKeys);
  for (std::size_t i = kKeys; i-- > 0;) {
    ASSERT_EQ(*memo.get(key_of(i), builds(calls, kKeys + i)), i);
    ASSERT_EQ(*memo.peek(key_of(i)).value(), i);
  }
  EXPECT_EQ(calls, kKeys);
  expect_stats(memo, kKeys, kKeys, kKeys);
}

TEST(Memo, ConcurrentGetAndPeekKeepTheFirstInsert) {
  // Threads walk overlapping keys in different orders, building on a miss
  // and peeking in between. Whoever builds, every reader of a key gets
  // the one value inserted first. Run under the tsan preset.
  constexpr std::size_t kThreads = 4, kKeys = 48, kRounds = 50;
  TestMemo memo("test.memo.race");
  std::atomic<std::size_t> gets{0};
  std::vector<std::vector<Value>> seen(kThreads, std::vector<Value>(kKeys));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t j = 0; j < kKeys; ++j) {
          const std::size_t k = (j * (2 * t + 1) + r) % kKeys;
          const Key key{{k % 6, k / 6}};
          Value v;
          if ((j + t) % 3 == 0) {
            v = memo.peek(key).value_or(nullptr);
            if (!v) continue;
          } else {
            v = memo.get(key, [k] { return std::make_shared<const std::size_t>(k); });
            gets.fetch_add(1, std::memory_order_relaxed);
          }
          if (!seen[t][k]) seen[t][k] = v;
          if (v != seen[t][k] || *v != k) ADD_FAILURE() << "key " << k << " changed value";
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t k = 0; k < kKeys; ++k) {
    const Value stored = memo.peek({{k % 6, k / 6}}).value();
    for (std::size_t t = 0; t < kThreads; ++t) {
      if (seen[t][k]) {
        EXPECT_EQ(seen[t][k], stored) << "key " << k << " thread " << t;
      }
    }
  }
  const bn::CacheStats s = memo.stats();
  EXPECT_EQ(s.entries, kKeys);
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_GE(s.misses, kKeys);
}

TEST(Lazy, ThrowingBuildStoresNothingAndTheNextGetBuildsAgain) {
  bn::Lazy<std::size_t> lazy;
  std::size_t calls = 0;
  EXPECT_THROW(lazy.get([&]() -> std::size_t {
    ++calls;
    throw std::runtime_error("build failed");
  }),
               std::runtime_error);
  EXPECT_FALSE(lazy.ready());
  EXPECT_EQ(lazy.get([&] { return ++calls; }), 2u);
  // Built: later build functions are never called.
  EXPECT_EQ(lazy.get([&] { return ++calls; }), 2u);
  EXPECT_EQ(calls, 2u);
}

TEST(Lazy, ReadyOnlyAfterASuccessfulBuild) {
  bn::Lazy<std::size_t> lazy;
  EXPECT_FALSE(lazy.ready());
  EXPECT_FALSE(lazy.ready());  // asking builds nothing
  EXPECT_THROW(lazy.get([]() -> std::size_t { throw std::logic_error("no"); }),
               std::logic_error);
  EXPECT_FALSE(lazy.ready());
  EXPECT_EQ(lazy.get([] { return std::size_t{7}; }), 7u);
  EXPECT_TRUE(lazy.ready());
}

TEST(Lazy, RacingFirstGetsBuildOnceAndShareTheValue) {
  // Every thread calls get at once; the first builds under the lock and
  // the rest wait for that build. Run under the tsan preset.
  constexpr std::size_t kThreads = 8;
  bn::Lazy<std::vector<std::size_t>> lazy;
  std::atomic<std::size_t> builds{0};
  std::atomic<std::size_t> waiting{0};
  std::vector<const std::vector<std::size_t>*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_add(1);
      while (waiting.load() < kThreads) std::this_thread::yield();
      seen[t] = &lazy.get([&] {
        builds.fetch_add(1);
        // A slow build: a get that built outside the lock would be
        // joined by every other thread here.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::vector<std::size_t>{1, 2, 3};
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1u);
  EXPECT_TRUE(lazy.ready());
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    EXPECT_EQ(*seen[t], (std::vector<std::size_t>{1, 2, 3}));
  }
}
