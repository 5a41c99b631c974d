// Heap allocations on the engine's warm VE path. A VE query plans its run
// (Bayes-ball's marks and ball stack, the requisite CPTs, the filtered
// order), reduces its CPTs by the evidence, eliminates and normalizes
// inside one frame of the thread's scratch arena, so once the arena has
// grown to the query's size a kAuto query() that routes to VE allocates
// nothing, and query_batch allocates a fixed number of blocks per batch
// whatever its size and however many evidence groups it holds.
//
// The test replaces the global operator new and delete with counting
// forwarders to malloc and free, so it is a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "bayesnet/engine.hpp"
#include "tests/relay_network.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted(std::size_t bytes, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(bytes);
  return std::aligned_alloc(align, (bytes + align - 1) / align * align);
}

void* counted_or_throw(std::size_t bytes, std::size_t align) {
  if (void* p = counted(bytes, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace bn = sysuq::bayesnet;

constexpr std::size_t kStages = 12;

// Heap allocations made by `run`.
template <class Run>
std::size_t allocations(Run&& run) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  run();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// VE-only batch traffic over Table I plus the relay stages: group g < 48
// observes stage g % 12 in state g / 12 (a distinct assignment per g),
// odd groups a second stage and every third group perception too. Each
// group holds n / (n / 4) = 4 queries, below jt_batch_threshold, so every
// group runs VE; the groups interleave and some queries repeat.
std::vector<bn::QuerySpec> ve_batch(std::size_t n, std::size_t salt) {
  std::vector<bn::QuerySpec> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = (i * 7 + salt) % (n / 4);
    bn::Evidence ev{{2 + g % kStages, g / kStages % 4}};
    if (g % 2 == 1) ev[2 + (g + 5) % kStages] = g % 4;
    if (g % 3 == 0) ev[1] = 2 + g % 2;
    bn::VariableId q = (i * 5 + g) % (kStages + 2);
    while (ev.contains(q)) q = (q + 1) % (kStages + 2);
    batch.push_back({q, std::move(ev)});
  }
  return batch;
}

TEST(EngineAllocations, WarmVeQueryAllocatesNothing) {
  const auto net = relay::network(kStages);
  const bn::InferenceEngine engine(net, {.threads = 1});
  // Requisite runs, a prior, and two runs on the ancestral set: with
  // stage 3 observed, perception lies outside stage 5's requisite CPTs,
  // and its states car and pedestrian are impossible under an unknown
  // ground truth.
  std::vector<bn::QuerySpec> queries = ve_batch(64, 0);
  queries.push_back({0, {{1, 3}}});
  queries.push_back({9, {}});
  queries.push_back({7, {{5, 1}, {1, 0}}});
  queries.push_back({7, {{5, 2}, {1, 1}}});
  for (const auto& q : queries) (void)engine.query(q.query, q.evidence);  // warm-up
  for (const auto& q : queries) {
    std::size_t size = 0;
    EXPECT_EQ(allocations([&] { size = engine.query(q.query, q.evidence).size(); }), 0u)
        << "query " << q.query;
    EXPECT_EQ(size, net.variable(q.query).cardinality());
  }
  // Every one of them ran VE.
  EXPECT_EQ(engine.jt_cache_stats().misses + engine.bp_cache_stats().misses, 0u);
}

TEST(EngineAllocations, BatchAllocationsDoNotGrowWithItsSize) {
  const auto net = relay::network(kStages);
  const bn::InferenceEngine engine(net, {.threads = 1});
  const auto small = ve_batch(64, 1);
  const auto large = ve_batch(128, 2);
  (void)engine.query_batch(small);  // warm-up
  (void)engine.query_batch(large);
  std::size_t answers = 0;
  const std::size_t for_small =
      allocations([&] { answers += engine.query_batch(small).size(); });
  const std::size_t for_large =
      allocations([&] { answers += engine.query_batch(large).size(); });
  EXPECT_EQ(answers, small.size() + large.size());
  EXPECT_EQ(for_small, for_large);
  EXPECT_EQ(engine.jt_cache_stats().misses + engine.bp_cache_stats().misses, 0u);
}

}  // namespace
