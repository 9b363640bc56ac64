// Pins the dyconit middleware's steady-state allocation claim: once queue,
// index and scratch capacities have warmed, enqueueing updates and running
// DyconitSystem::tick() (and forced flushes) performs no heap allocation.
// This binary replaces the global operator new with a counting one; it
// counts only while a test's measured scope is open, so gtest's own
// allocations outside that scope are ignored.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "dyconit/system.h"

namespace {

bool g_counting = false;  // the measured scopes are single-threaded
std::size_t g_allocations = 0;

}  // namespace

// GCC reports the free() below as mismatched with operator new; in this
// binary both are backed by malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dyconits::dyconit {
namespace {

/// Counts heap allocations made between construction and count().
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocationCounter() { g_counting = false; }
  std::size_t count() {
    g_counting = false;
    return g_allocations;
  }
};

class NoopSink : public FlushSink {
 public:
  void deliver(SubscriberId, const std::vector<FlushedUpdate>&) override {}
};

constexpr int kUnits = 4;
constexpr SubscriberId kSubscribers = 6;

/// A few dyconits with every subscriber on each, under `bounds`.
class AllocationTest : public ::testing::Test {
 protected:
  void subscribe_all(Bounds bounds) {
    for (int u = 0; u < kUnits; ++u) {
      for (SubscriberId s = 1; s <= kSubscribers; ++s) sys_.subscribe(unit(u), s, bounds);
    }
  }

  static DyconitId unit(int u) { return DyconitId::chunk_entities({u, 0}); }

  /// One game tick's worth of entity moves: `entities` moves per unit, keys
  /// `first_key`.., each excluding the subscriber that owns the entity.
  void enqueue_round(std::uint32_t first_key, std::uint32_t entities) {
    for (int u = 0; u < kUnits; ++u) {
      for (std::uint32_t e = 0; e < entities; ++e) {
        const std::uint32_t id = first_key + e;
        Update up;
        up.msg = protocol::EntityMove{id, {static_cast<double>(id), 64, 0}, 0, 0};
        up.weight = 0.25;
        up.coalesce_key = coalesce_key_entity(id);
        sys_.update(unit(u), up, 1 + id % kSubscribers);
      }
    }
  }

  SimClock clock_;
  DyconitSystem sys_{clock_};
  NoopSink sink_;
};

TEST_F(AllocationTest, CoalescingUnderWideBoundsAllocatesNothing) {
  // Repeating keys: each queue coalesces for several ticks, then flushes on
  // staleness.
  subscribe_all({SimDuration::millis(200), 1e9});
  const auto round = [&] {
    clock_.advance(SimDuration::millis(50));
    enqueue_round(1, 40);
    sys_.tick(sink_);
  };
  for (int i = 0; i < 50; ++i) round();
  AllocationCounter counter;
  for (int i = 0; i < 200; ++i) round();
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_GT(sys_.stats().coalesced, 0u);
  EXPECT_GT(sys_.stats().flushes_staleness, 0u);
}

TEST_F(AllocationTest, FreshKeysUnderZeroBoundsAllocateNothing) {
  // Every tick brings keys the index has never seen, and every queue is
  // flushed and cleared the same tick.
  subscribe_all(Bounds::zero());
  std::uint32_t next_key = 1;
  const auto round = [&] {
    clock_.advance(SimDuration::millis(50));
    enqueue_round(next_key, 40);
    next_key += 40;
    sys_.tick(sink_);
  };
  for (int i = 0; i < 50; ++i) round();
  AllocationCounter counter;
  for (int i = 0; i < 200; ++i) round();
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_EQ(sys_.stats().coalesced, 0u);
  EXPECT_EQ(sys_.total_queued(), 0u);
}

TEST_F(AllocationTest, ForcedFlushesAllocateNothing) {
  // flush_subscriber and flush_all take through the same reused scratch as
  // the due flush.
  subscribe_all(Bounds::infinite());
  const auto round = [&] {
    clock_.advance(SimDuration::millis(50));
    enqueue_round(1, 40);
    for (SubscriberId s = 1; s <= kSubscribers / 2; ++s) sys_.flush_subscriber(s, sink_);
    sys_.flush_all(sink_);
  };
  for (int i = 0; i < 50; ++i) round();
  AllocationCounter counter;
  for (int i = 0; i < 200; ++i) round();
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_GT(sys_.stats().flushes_forced, 0u);
}

TEST(AllocationCounterTest, CountsAllocationsInScope) {
  // The counter itself must be able to fail. The volatile pointer keeps
  // the compiler from eliding the allocation.
  static void* volatile held = nullptr;
  AllocationCounter counter;
  held = ::operator new(16);
  ::operator delete(held);
  EXPECT_EQ(counter.count(), 1u);
}

}  // namespace
}  // namespace dyconits::dyconit
