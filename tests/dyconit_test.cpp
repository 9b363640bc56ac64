// Unit tests for the dyconit core: queues, coalescing (including a seeded
// differential test of the coalescing index), bound enforcement, flush
// reasons, system lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "dyconit/system.h"
#include "util/rng.h"

namespace dyconits::dyconit {
namespace {

using protocol::EntityMove;

Update move_update(std::uint32_t entity, double x, double weight, SimTime t) {
  Update u;
  u.msg = EntityMove{entity, {x, 0, 0}, 0, 0};
  u.weight = weight;
  u.created = t;
  u.coalesce_key = coalesce_key_entity(entity);
  return u;
}

/// Sink that records every flushed update.
class RecordingSink : public FlushSink {
 public:
  struct Record {
    SubscriberId to;
    protocol::AnyMessage msg;
    SimTime created;
    double weight;
  };

  void deliver(SubscriberId to, const std::vector<FlushedUpdate>& updates) override {
    ++flush_calls;
    for (const auto& u : updates) records.push_back({to, *u.msg, u.created, u.weight});
  }

  std::vector<Record> records;
  int flush_calls = 0;
};

// ---------------------------------------------------------- SubscriberQueue

TEST(SubscriberQueueTest, EnqueueAccumulates) {
  SubscriberQueue q;
  EXPECT_TRUE(q.empty());
  q.enqueue(move_update(1, 1, 0.5, SimTime(100)));
  q.enqueue(move_update(2, 2, 0.25, SimTime(200)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 0.75);
  EXPECT_EQ(q.oldest_created(), SimTime(100));
}

TEST(SubscriberQueueTest, CoalesceKeepsLatestPayloadOldestTime) {
  SubscriberQueue q;
  EXPECT_FALSE(q.enqueue(move_update(1, 1.0, 0.5, SimTime(100))));
  EXPECT_TRUE(q.enqueue(move_update(1, 9.0, 0.5, SimTime(200))));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 1.0);           // weights add
  EXPECT_EQ(q.oldest_created(), SimTime(100));       // staleness from first write
  const auto& mv = std::get<EntityMove>(q.peek().front().msg);
  EXPECT_DOUBLE_EQ(mv.pos.x, 9.0);                   // last write wins
}

TEST(SubscriberQueueTest, DistinctKeysDoNotCoalesce) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 1, SimTime(0)));
  q.enqueue(move_update(2, 2, 1, SimTime(0)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(SubscriberQueueTest, ZeroKeyNeverCoalesces) {
  SubscriberQueue q;
  Update u = move_update(1, 1, 1, SimTime(0));
  u.coalesce_key = 0;
  q.enqueue(u);
  q.enqueue(u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(SubscriberQueueTest, ViolatesStaleness) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 0.1, SimTime(0)));
  const Bounds b{SimDuration::millis(100), 1000.0};
  EXPECT_FALSE(q.violates(b, SimTime(99'000)));
  EXPECT_TRUE(q.violates(b, SimTime(100'000)));  // inclusive at the bound
  EXPECT_EQ(q.violation_reason(b, SimTime(100'000)), FlushReason::Staleness);
}

TEST(SubscriberQueueTest, ViolatesNumerical) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 3.0, SimTime(0)));
  const Bounds b{SimDuration::seconds(100), 5.0};
  EXPECT_FALSE(q.violates(b, SimTime(1)));
  q.enqueue(move_update(1, 2, 2.5, SimTime(1)));  // coalesces; weight 5.5 > 5
  EXPECT_TRUE(q.violates(b, SimTime(2)));
  EXPECT_EQ(q.violation_reason(b, SimTime(2)), FlushReason::Numerical);
}

TEST(SubscriberQueueTest, ZeroBoundsViolateImmediately) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 0.001, SimTime(500)));
  EXPECT_TRUE(q.violates(Bounds::zero(), SimTime(500)));
}

TEST(SubscriberQueueTest, InfiniteBoundsNeverViolate) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 1e12, SimTime(0)));
  EXPECT_FALSE(q.violates(Bounds::infinite(), SimTime(0) + SimDuration::seconds(1000000)));
}

TEST(SubscriberQueueTest, EmptyNeverViolates) {
  SubscriberQueue q;
  EXPECT_FALSE(q.violates(Bounds::zero(), SimTime(1'000'000'000)));
}

TEST(SubscriberQueueTest, TakeAllResets) {
  SubscriberQueue q;
  q.enqueue(move_update(1, 1, 1, SimTime(0)));
  q.enqueue(move_update(2, 2, 2, SimTime(0)));
  const auto taken = q.take_all();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.total_weight(), 0.0);
  // Coalesce index is reset too: re-enqueueing the same key starts fresh.
  EXPECT_FALSE(q.enqueue(move_update(1, 5, 1, SimTime(1))));
  EXPECT_EQ(q.size(), 1u);
}

TEST(SubscriberQueueTest, PreservesEnqueueOrder) {
  SubscriberQueue q;
  for (std::uint32_t i = 1; i <= 5; ++i) q.enqueue(move_update(i, i, 1, SimTime(i)));
  q.enqueue(move_update(2, 99, 1, SimTime(10)));  // coalesces into slot 2
  const auto taken = q.take_all();
  ASSERT_EQ(taken.size(), 5u);
  EXPECT_DOUBLE_EQ(std::get<EntityMove>(taken[1].msg).pos.x, 99.0);  // in place
  EXPECT_EQ(std::get<EntityMove>(taken[4].msg).id, 5u);
}

TEST(SubscriberQueueTest, ShedEntityMovesCompactsInPlace) {
  SubscriberQueue q;
  Update block;
  block.msg = protocol::BlockChange{{1, 64, 2}, world::Block::Stone};
  block.weight = 2.0;
  block.coalesce_key = coalesce_key_block({1, 64, 2});
  Update chat = block;  // key 0: never coalesces, never shed
  chat.coalesce_key = 0;
  q.enqueue(move_update(1, 1, 0.5, SimTime(0)));
  q.enqueue(block);
  q.enqueue(move_update(2, 2, 0.25, SimTime(1)));
  q.enqueue(chat);
  const Update* storage = q.peek().data();

  double weight = 0.0;
  EXPECT_EQ(q.shed_entity_moves(&weight), 2u);
  EXPECT_DOUBLE_EQ(weight, 0.75);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peek().data(), storage);  // compacted in place, no reallocation
  EXPECT_EQ(q.peek()[0].coalesce_key, block.coalesce_key);  // survivors keep order
  EXPECT_EQ(q.peek()[1].coalesce_key, 0u);
  EXPECT_DOUBLE_EQ(q.total_weight(), 4.0);

  // The key index follows the survivors' new slots.
  EXPECT_TRUE(q.enqueue(block));
  EXPECT_DOUBLE_EQ(q.peek()[0].weight, 4.0);
  EXPECT_FALSE(q.enqueue(move_update(1, 3, 1, SimTime(2))));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.shed_entity_moves(nullptr), 1u);
  EXPECT_EQ(q.shed_entity_moves(nullptr), 0u);
}

// Keys whose home slot is `home` in a table of `capacity` slots, so they
// share one probe run there.
std::vector<std::uint64_t> keys_with_home(std::size_t capacity, std::size_t home,
                                          std::size_t count, std::uint64_t ns = 1) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t id = 1; keys.size() < count; ++id) {
    const std::uint64_t key = (ns << 56) | id;
    if (SubscriberQueue::home_slot(key, capacity) == home) keys.push_back(key);
  }
  return keys;
}

Update keyed_update(std::uint64_t key, double x, double weight, SimTime t) {
  Update u = move_update(static_cast<std::uint32_t>(key), x, weight, t);
  u.coalesce_key = key;
  return u;
}

TEST(SubscriberQueueTest, IndexIsLazyAndOnlyGrows) {
  SubscriberQueue q;
  Update chat = move_update(1, 1, 1, SimTime(0));
  chat.coalesce_key = 0;
  q.enqueue(chat);
  EXPECT_EQ(q.index_capacity(), 0u);  // unkeyed updates need no index
  q.enqueue(move_update(1, 1, 1, SimTime(0)));
  EXPECT_EQ(q.index_capacity(), 8u);
  for (std::uint32_t i = 2; i <= 100; ++i) q.enqueue(move_update(i, i, 1, SimTime(0)));
  const std::size_t grown = q.index_capacity();
  EXPECT_GE(grown, 200u);  // at most half full
  q.take_all();
  q.enqueue(move_update(1, 1, 1, SimTime(0)));
  EXPECT_EQ(q.index_capacity(), grown);  // storage reused across takes
}

TEST(SubscriberQueueTest, KeysSharingAProbeRunSurviveClearAndShed) {
  // Three entity keys and a block key all start probing at slot 0 of the
  // first (8-slot) table, so each lookup walks the shared run.
  const std::vector<std::uint64_t> moves = keys_with_home(8, 0, 3, 1);
  const std::uint64_t block = keys_with_home(8, 0, 1, 2).front();
  SubscriberQueue q;
  for (const std::uint64_t k : moves) EXPECT_FALSE(q.enqueue(keyed_update(k, 1, 1, SimTime(0))));
  EXPECT_TRUE(q.enqueue(keyed_update(moves[2], 2, 1, SimTime(1))));  // end of the run
  std::vector<Update> out;
  q.take_into(out);
  ASSERT_EQ(out.size(), 3u);
  // After the clear nothing of the old run may match: the last key of the
  // run, then the first, enqueue fresh, then coalesce.
  EXPECT_FALSE(q.enqueue(keyed_update(moves[2], 3, 1, SimTime(2))));
  EXPECT_FALSE(q.enqueue(keyed_update(moves[0], 3, 1, SimTime(2))));
  EXPECT_TRUE(q.enqueue(keyed_update(moves[2], 4, 1, SimTime(3))));
  EXPECT_EQ(q.size(), 2u);
  // Shedding the moves in front of the block key moves it to position 0;
  // the rebuilt run must find it there.
  q.drop_all();
  q.enqueue(keyed_update(moves[0], 5, 1, SimTime(4)));
  q.enqueue(keyed_update(moves[1], 5, 1, SimTime(4)));
  q.enqueue(keyed_update(block, 5, 1, SimTime(4)));
  EXPECT_EQ(q.shed_entity_moves(nullptr), 2u);
  EXPECT_TRUE(q.enqueue(keyed_update(block, 6, 2, SimTime(5))));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.peek()[0].weight, 3.0);
  EXPECT_DOUBLE_EQ(std::get<EntityMove>(q.peek()[0].msg).pos.x, 6.0);
}

/// Reference for SubscriberQueue: a vector plus an ordered key map, with
/// the same coalescing rule (last payload wins, weights add, the first
/// position and creation time stay).
struct ReferenceQueue {
  std::vector<Update> updates;
  std::map<std::uint64_t, std::size_t> by_key;
  double total_weight = 0.0;

  bool enqueue(const Update& u) {
    total_weight += u.weight;
    if (u.coalesce_key != 0) {
      const auto it = by_key.find(u.coalesce_key);
      if (it != by_key.end()) {
        updates[it->second].msg = u.msg;
        updates[it->second].weight += u.weight;
        return true;
      }
      by_key[u.coalesce_key] = updates.size();
    }
    updates.push_back(u);
    return false;
  }

  std::vector<Update> take() {
    std::vector<Update> out = std::move(updates);
    updates.clear();
    by_key.clear();
    total_weight = 0.0;
    return out;
  }

  std::size_t shed_entity_moves(double* weight) {
    double removed_weight = 0.0;
    std::vector<Update> kept;
    for (const Update& u : updates) {
      if ((u.coalesce_key >> 56) == 1) {
        removed_weight += u.weight;
      } else {
        kept.push_back(u);
      }
    }
    const std::size_t removed = updates.size() - kept.size();
    if (removed == 0) return 0;
    updates = std::move(kept);
    by_key.clear();
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (updates[i].coalesce_key != 0) by_key[updates[i].coalesce_key] = i;
    }
    total_weight -= removed_weight;
    *weight += removed_weight;
    return removed;
  }
};

std::uint64_t queue_iters(std::uint64_t def) {
  const char* env = std::getenv("DYCONITS_QUEUE_ITERS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : def;
}

// Same updates, same order. The payload's x is a serial number, so a
// coalesce that picked the wrong entry shows up as a wrong payload.
void expect_same_updates(const std::vector<Update>& got, const std::vector<Update>& want,
                         std::uint64_t step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].coalesce_key, want[i].coalesce_key) << "step " << step << " at " << i;
    ASSERT_EQ(std::get<EntityMove>(got[i].msg).pos.x, std::get<EntityMove>(want[i].msg).pos.x)
        << "step " << step << " at " << i;
    ASSERT_EQ(got[i].weight, want[i].weight) << "step " << step << " at " << i;
    ASSERT_EQ(got[i].created, want[i].created) << "step " << step << " at " << i;
  }
}

// Seeded differential test of the coalescing index (DYCONITS_QUEUE_ITERS
// steps; scripts/verify.sh runs 100k under ASan+UBSan). Keys come from
// probe runs shared at several table sizes, a small pool that coalesces
// often, block keys, and bursts of fresh keys that grow the table through
// several doublings before the queue goes back to a few entries.
TEST(SubscriberQueueTest, MatchesReferenceUnderRandomOperations) {
  std::vector<std::uint64_t> pool;
  for (const std::size_t capacity : {8u, 16u, 64u, 512u}) {
    for (const std::uint64_t ns : {1u, 2u}) {
      const auto run = keys_with_home(capacity, capacity / 2, 6, ns);
      pool.insert(pool.end(), run.begin(), run.end());
    }
  }
  for (std::uint64_t id = 1; id <= 24; ++id) pool.push_back(coalesce_key_entity(id));

  Rng rng(0x9E7EA5Eull);
  SubscriberQueue q;
  ReferenceQueue ref;
  std::vector<Update> out;
  std::uint64_t serial = 0;
  std::uint64_t fresh = 1'000'000;  // burst keys, never reused
  std::size_t capacity = 0;
  std::size_t max_capacity = 0;
  const auto make = [&](std::uint64_t key) {
    ++serial;
    return keyed_update(key, static_cast<double>(serial),
                        static_cast<double>(1 + rng.next_below(16)) / 16.0,
                        SimTime(static_cast<std::int64_t>(serial)));
  };

  const std::uint64_t iters = queue_iters(3000);
  for (std::uint64_t step = 0; step < iters; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 55) {
      const Update u = make(pool[rng.next_below(pool.size())]);
      ASSERT_EQ(q.enqueue(u), ref.enqueue(u)) << "step " << step;
    } else if (op < 65) {
      const Update u = make(0);
      ASSERT_FALSE(q.enqueue(u));
      ref.enqueue(u);
    } else if (op < 68) {
      const std::uint64_t n = 64 + rng.next_below(960);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Update u = make(rng.chance(0.8) ? (1ull << 56) | ++fresh
                                              : pool[rng.next_below(pool.size())]);
        ASSERT_EQ(q.enqueue(u), ref.enqueue(u)) << "step " << step;
      }
    } else if (op < 80) {
      q.take_into(out);
      expect_same_updates(out, ref.take(), step);
    } else if (op < 85) {
      expect_same_updates(q.take_all(), ref.take(), step);
    } else if (op < 90) {
      q.drop_all();
      ref.take();
    } else {
      double w = 0.0;
      double ref_w = 0.0;
      ASSERT_EQ(q.shed_entity_moves(&w), ref.shed_entity_moves(&ref_w)) << "step " << step;
      ASSERT_EQ(w, ref_w) << "step " << step;
    }
    expect_same_updates(q.peek(), ref.updates, step);
    ASSERT_EQ(q.total_weight(), ref.total_weight) << "step " << step;
    // The index only grows, stays a power of two and at most half full.
    ASSERT_GE(q.index_capacity(), capacity) << "step " << step;
    capacity = q.index_capacity();
    max_capacity = std::max(max_capacity, capacity);
    ASSERT_EQ(capacity & (capacity - 1), 0u) << "step " << step;
    ASSERT_GE(capacity, 2 * ref.by_key.size()) << "step " << step;
  }
  // The bursts grew it through several doublings.
  if (iters >= 1000) {
    EXPECT_GE(max_capacity, 256u);
  }
}

// ----------------------------------------------------------------- Dyconit

class DyconitTest : public ::testing::Test {
 protected:
  Stats stats_;
  Dyconit d_{DyconitId::chunk_entities({0, 0}), Bounds::zero()};
  RecordingSink sink_;
};

TEST_F(DyconitTest, SubscribeUnsubscribe) {
  EXPECT_FALSE(d_.subscribed(1));
  d_.subscribe(1, Bounds::zero());
  EXPECT_TRUE(d_.subscribed(1));
  EXPECT_EQ(d_.subscriber_count(), 1u);
  d_.unsubscribe(1, stats_);
  EXPECT_FALSE(d_.subscribed(1));
  EXPECT_TRUE(d_.idle());
}

TEST_F(DyconitTest, EnqueueFansOutToAllButExcluded) {
  d_.subscribe(1);
  d_.subscribe(2);
  d_.subscribe(3);
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), /*exclude=*/2, stats_);
  EXPECT_EQ(stats_.enqueued, 2u);
  EXPECT_EQ(d_.total_queued(), 2u);
}

TEST_F(DyconitTest, EnqueueWithNoSubscribersDrops) {
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  EXPECT_EQ(stats_.dropped_no_subscriber, 1u);
  EXPECT_EQ(stats_.enqueued, 0u);
}

TEST_F(DyconitTest, EnqueueWithOnlyOriginatorDrops) {
  d_.subscribe(1);
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), /*exclude=*/1, stats_);
  EXPECT_EQ(stats_.dropped_no_subscriber, 1u);
}

TEST_F(DyconitTest, UnsubscribeDropsQueued) {
  d_.subscribe(1);
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.enqueue(move_update(8, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.unsubscribe(1, stats_);
  EXPECT_EQ(stats_.dropped_unsubscribe, 2u);
}

TEST_F(DyconitTest, FlushDueZeroBoundsDeliversEverything) {
  d_.subscribe(1, Bounds::zero());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 1u);
  EXPECT_EQ(stats_.delivered, 1u);
  EXPECT_EQ(stats_.flushes_staleness, 1u);
  EXPECT_EQ(d_.total_queued(), 0u);
}

TEST_F(DyconitTest, FlushDueRespectsBounds) {
  d_.subscribe(1, Bounds{SimDuration::millis(200), 100.0});
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0) + SimDuration::millis(100), sink_, stats_);
  EXPECT_TRUE(sink_.records.empty());  // within bounds: hold
  d_.flush_due(SimTime(0) + SimDuration::millis(200), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(DyconitTest, NumericalBoundTriggersFlush) {
  d_.subscribe(1, Bounds{SimDuration::seconds(1000), 2.0});
  d_.enqueue(move_update(7, 1, 1.5, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(1), sink_, stats_);
  EXPECT_TRUE(sink_.records.empty());
  d_.enqueue(move_update(7, 2, 1.5, SimTime(1)), kNoSubscriber, stats_);  // 3.0 > 2
  d_.flush_due(SimTime(2), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);  // coalesced into one update
  EXPECT_EQ(stats_.flushes_numerical, 1u);
  EXPECT_DOUBLE_EQ(sink_.records[0].weight, 3.0);
}

TEST_F(DyconitTest, PerSubscriberBoundsIndependent) {
  d_.subscribe(1, Bounds::zero());
  d_.subscribe(2, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0), sink_, stats_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].to, 1u);
  EXPECT_EQ(d_.total_queued(), 1u);  // subscriber 2 still holds it
}

TEST_F(DyconitTest, ForcedFlushDeliversRegardless) {
  d_.subscribe(1, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_all(SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(stats_.flushes_forced, 1u);
}

TEST_F(DyconitTest, FlushSubscriberOnlyTouchesOne) {
  d_.subscribe(1, Bounds::infinite());
  d_.subscribe(2, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_subscriber(1, SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(d_.total_queued(), 1u);
}

TEST_F(DyconitTest, EmptyQueueFlushIsNoop) {
  d_.subscribe(1, Bounds::zero());
  d_.flush_all(SimTime(0), sink_, stats_);
  EXPECT_EQ(sink_.flush_calls, 0);
  EXPECT_EQ(stats_.flushes_forced, 0u);
}

TEST_F(DyconitTest, ResubscribeUpdatesBoundsKeepsQueue) {
  d_.subscribe(1, Bounds::infinite());
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.subscribe(1, Bounds::zero());  // re-subscribe with tighter bounds
  EXPECT_EQ(d_.total_queued(), 1u);
  d_.flush_due(SimTime(1), sink_, stats_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(DyconitTest, BoundsOfFallsBackToDefault) {
  Dyconit d(DyconitId::global_blocks(), Bounds{SimDuration::millis(42), 7.0});
  EXPECT_EQ(d.bounds_of(99).staleness.count_millis(), 42);
  d.subscribe(5, Bounds::zero());
  EXPECT_TRUE(d.bounds_of(5).is_zero());
}

TEST_F(DyconitTest, SnapshotThresholdDropsQueueAndAsksForSnapshot) {
  struct SnapshotSink : RecordingSink {
    void request_snapshot(SubscriberId to, const DyconitId& unit) override {
      requests.emplace_back(to, unit);
    }
    std::vector<std::pair<SubscriberId, DyconitId>> requests;
  } sink;

  d_.subscribe(1, Bounds::infinite());
  for (std::uint32_t i = 1; i <= 10; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  d_.flush_due(SimTime(1), sink, stats_, /*snapshot_threshold=*/4);
  EXPECT_TRUE(sink.records.empty());          // deltas were dropped, not sent
  ASSERT_EQ(sink.requests.size(), 1u);
  EXPECT_EQ(sink.requests[0].first, 1u);
  EXPECT_EQ(sink.requests[0].second, d_.id());
  EXPECT_EQ(stats_.snapshots_requested, 1u);
  EXPECT_EQ(stats_.dropped_snapshot, 10u);
  EXPECT_EQ(d_.total_queued(), 0u);
}

TEST_F(DyconitTest, SnapshotThresholdZeroDisables) {
  d_.subscribe(1, Bounds::infinite());
  for (std::uint32_t i = 1; i <= 10; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  d_.flush_due(SimTime(1), sink_, stats_, 0);
  EXPECT_EQ(stats_.snapshots_requested, 0u);
  EXPECT_EQ(d_.total_queued(), 10u);
}

TEST_F(DyconitTest, QueueAtThresholdIsNotSnapshotted) {
  d_.subscribe(1, Bounds::zero());
  for (std::uint32_t i = 1; i <= 4; ++i) {
    d_.enqueue(move_update(i, i, 1, SimTime(0)), kNoSubscriber, stats_);
  }
  d_.flush_due(SimTime(0), sink_, stats_, 4);  // size == threshold: normal flush
  EXPECT_EQ(stats_.snapshots_requested, 0u);
  EXPECT_EQ(sink_.records.size(), 4u);
}

TEST_F(DyconitTest, StalenessRecordingAtFlush) {
  stats_.record_staleness = true;
  d_.subscribe(1, Bounds{SimDuration::millis(100), 1e9});
  d_.enqueue(move_update(7, 1, 1, SimTime(0)), kNoSubscriber, stats_);
  d_.flush_due(SimTime(0) + SimDuration::millis(150), sink_, stats_);
  ASSERT_EQ(stats_.staleness_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(stats_.staleness_ms[0], 150.0);
}

// ----------------------------------------------------------- DyconitSystem

class SystemTest : public ::testing::Test {
 protected:
  SimClock clock_;
  DyconitSystem sys_{clock_};
  RecordingSink sink_;
};

TEST_F(SystemTest, GetOrCreateIsIdempotent) {
  Dyconit& a = sys_.get_or_create(DyconitId::chunk_blocks({1, 1}));
  Dyconit& b = sys_.get_or_create(DyconitId::chunk_blocks({1, 1}));
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(sys_.dyconit_count(), 1u);
  EXPECT_EQ(sys_.find(DyconitId::chunk_blocks({2, 2})), nullptr);
}

TEST_F(SystemTest, UpdateStampsCreationTime) {
  clock_.advance(SimDuration::millis(123));
  sys_.subscribe(DyconitId::global_entities(), 1, Bounds::infinite());
  Update u = move_update(7, 1, 1, SimTime::zero());
  u.created = SimTime::zero();  // unset: system stamps it
  sys_.update(DyconitId::global_entities(), u);
  sys_.flush_all(sink_);
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].created.count_micros(), 123000);
}

TEST_F(SystemTest, TickFlushesDueQueues) {
  const auto id = DyconitId::chunk_entities({0, 0});
  sys_.subscribe(id, 1, Bounds{SimDuration::millis(100), 1e9});
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  sys_.tick(sink_);
  EXPECT_TRUE(sink_.records.empty());
  clock_.advance(SimDuration::millis(100));
  sys_.tick(sink_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(SystemTest, TickGarbageCollectsSubscriberlessDyconits) {
  const auto id = DyconitId::chunk_blocks({5, 5});
  sys_.subscribe(id, 1, Bounds::zero());
  EXPECT_EQ(sys_.dyconit_count(), 1u);
  sys_.unsubscribe(id, 1);
  sys_.tick(sink_);
  EXPECT_EQ(sys_.dyconit_count(), 0u);
}

TEST_F(SystemTest, GcSparesDyconitsWithSubscribers) {
  const auto id = DyconitId::chunk_blocks({1, 2});
  sys_.subscribe(id, 1, Bounds::infinite());
  for (int i = 0; i < 10; ++i) sys_.tick(sink_);
  EXPECT_NE(sys_.find(id), nullptr);
  EXPECT_TRUE(sys_.is_subscribed(id, 1));
}

TEST_F(SystemTest, UnsubscribeAllClearsEverySubscription) {
  sys_.subscribe(DyconitId::chunk_blocks({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_blocks({0, 0}), 2, Bounds::infinite());
  sys_.update(DyconitId::chunk_blocks({0, 0}), move_update(9, 1, 1, clock_.now()));
  sys_.unsubscribe_all(1);
  EXPECT_FALSE(sys_.is_subscribed(DyconitId::chunk_blocks({0, 0}), 1));
  EXPECT_TRUE(sys_.is_subscribed(DyconitId::chunk_blocks({0, 0}), 2));
  EXPECT_EQ(sys_.stats().dropped_unsubscribe, 1u);
}

TEST_F(SystemTest, FlushSubscriberAcrossDyconits) {
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_entities({1, 0}), 1, Bounds::infinite());
  sys_.update(DyconitId::chunk_entities({0, 0}), move_update(7, 1, 1, clock_.now()));
  sys_.update(DyconitId::chunk_entities({1, 0}), move_update(8, 1, 1, clock_.now()));
  sys_.flush_subscriber(1, sink_);
  EXPECT_EQ(sink_.records.size(), 2u);
}

TEST_F(SystemTest, SetBoundsAffectsFlushDecision) {
  const auto id = DyconitId::chunk_entities({0, 0});
  sys_.subscribe(id, 1, Bounds::infinite());
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  clock_.advance(SimDuration::seconds(10));
  sys_.tick(sink_);
  EXPECT_TRUE(sink_.records.empty());
  sys_.set_bounds(id, 1, Bounds::zero());
  sys_.tick(sink_);
  EXPECT_EQ(sink_.records.size(), 1u);
}

TEST_F(SystemTest, UpdateToUnknownUnitCountsDropAndCreatesNothing) {
  const auto id = DyconitId::chunk_entities({3, 3});
  sys_.update(id, move_update(7, 1, 1, clock_.now()));
  EXPECT_EQ(sys_.stats().dropped_no_subscriber, 1u);
  EXPECT_EQ(sys_.stats().enqueued, 0u);
  EXPECT_EQ(sys_.find(id), nullptr);
  EXPECT_EQ(sys_.dyconit_count(), 0u);
}

TEST_F(SystemTest, GcErasesDyconitsCreatedOrLeftWithoutSubscribers) {
  sys_.get_or_create(DyconitId::chunk_blocks({0, 0}));  // never subscribed
  sys_.subscribe(DyconitId::chunk_blocks({1, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_blocks({2, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_blocks({2, 0}), 2, Bounds::infinite());
  sys_.update(DyconitId::chunk_blocks({1, 0}), move_update(7, 1, 1, clock_.now()));
  sys_.unsubscribe_all(1);
  EXPECT_EQ(sys_.dyconit_count(), 3u);
  sys_.tick(sink_);
  EXPECT_EQ(sys_.dyconit_count(), 1u);  // only {2,0} keeps a subscriber
  EXPECT_NE(sys_.find(DyconitId::chunk_blocks({2, 0})), nullptr);
  EXPECT_EQ(sys_.total_queued(), 0u);
}

TEST_F(SystemTest, TotalQueuedMatchesBruteForceAfterMixedOperations) {
  const auto brute = [&] {
    std::size_t n = 0;
    sys_.for_each([&](Dyconit& d) {
      d.for_each_subscriber(
          [&](SubscriberId, Bounds&, const SubscriberQueue& q) { n += q.size(); });
    });
    return n;
  };
  const auto a = DyconitId::chunk_entities({0, 0});
  const auto b = DyconitId::chunk_entities({1, 0});
  sys_.subscribe(a, 1, Bounds::infinite());
  sys_.subscribe(a, 2, Bounds{SimDuration::millis(100), 1e9});
  sys_.subscribe(b, 1, Bounds::infinite());
  sys_.update(a, move_update(7, 1, 1, clock_.now()));
  sys_.update(a, move_update(7, 2, 1, clock_.now()));  // coalesces
  sys_.update(a, move_update(8, 1, 1, clock_.now()), /*exclude=*/2);
  sys_.update(b, move_update(9, 1, 1, clock_.now()));
  EXPECT_EQ(sys_.total_queued(), 4u);
  EXPECT_EQ(sys_.total_queued(), brute());

  clock_.advance(SimDuration::millis(100));
  sys_.tick(sink_);  // subscriber 2's queue is due
  EXPECT_EQ(sys_.total_queued(), 3u);
  EXPECT_EQ(sys_.total_queued(), brute());

  sys_.set_shed_directive(1, ShedDirective{true, 0});
  sys_.tick(sink_);  // sheds every move owed to 1
  EXPECT_EQ(sys_.total_queued(), 0u);
  EXPECT_EQ(sys_.stats().shed_updates, 3u);
  sys_.clear_shed_directives();

  sys_.update(b, move_update(9, 1, 1, clock_.now()));
  sys_.set_snapshot_threshold(1);
  sys_.update(b, move_update(10, 1, 1, clock_.now()));
  sys_.tick(sink_);  // 2 > 1 queued: dropped for a snapshot
  EXPECT_EQ(sys_.total_queued(), 0u);
  EXPECT_EQ(sys_.stats().dropped_snapshot, 2u);
  sys_.set_snapshot_threshold(0);

  sys_.update(a, move_update(7, 1, 1, clock_.now()));
  sys_.update(b, move_update(7, 1, 1, clock_.now()));
  EXPECT_EQ(sys_.total_queued(), 3u);
  sys_.flush_subscriber(2, sink_);
  EXPECT_EQ(sys_.total_queued(), 2u);
  sys_.unsubscribe(a, 1);
  EXPECT_EQ(sys_.total_queued(), 1u);
  EXPECT_EQ(sys_.total_queued(), brute());
  sys_.resync_subscriber(1, sink_);
  EXPECT_EQ(sys_.total_queued(), 0u);
  EXPECT_EQ(sys_.total_queued(), brute());
}

TEST_F(SystemTest, TotalQueuedCounts) {
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 1, Bounds::infinite());
  sys_.subscribe(DyconitId::chunk_entities({0, 0}), 2, Bounds::infinite());
  sys_.update(DyconitId::chunk_entities({0, 0}), move_update(7, 1, 1, clock_.now()));
  EXPECT_EQ(sys_.total_queued(), 2u);
}

// --------------------------------------------------------------- DyconitId

TEST(DyconitIdTest, RegionMapping) {
  EXPECT_EQ(DyconitId::region_blocks({0, 0}), DyconitId::region_blocks({3, 3}));
  EXPECT_NE(DyconitId::region_blocks({3, 3}), DyconitId::region_blocks({4, 3}));
  EXPECT_EQ(DyconitId::region_blocks({-1, -1}), DyconitId::region_blocks({-4, -4}));
  EXPECT_NE(DyconitId::region_blocks({-1, -1}), DyconitId::region_blocks({0, 0}));
}

TEST(DyconitIdTest, DomainsDistinct) {
  EXPECT_NE(DyconitId::chunk_blocks({1, 1}), DyconitId::chunk_entities({1, 1}));
  EXPECT_NE(DyconitId::global_blocks(), DyconitId::global_entities());
}

TEST(DyconitIdTest, CenterLocations) {
  const auto c = DyconitId::chunk_blocks({2, -1}).center();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->x, 2 * 16 + 8.0);
  EXPECT_DOUBLE_EQ(c->z, -16 + 8.0);
  EXPECT_FALSE(DyconitId::global_blocks().center().has_value());
  EXPECT_FALSE(DyconitId::custom(7).center().has_value());
  const auto r = DyconitId::region_entities({0, 0}).center();
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->x, 32.0);  // region 0 spans chunks 0..3 = blocks 0..63
}

TEST(DyconitIdTest, EntityDomainPredicate) {
  EXPECT_TRUE(DyconitId::chunk_entities({0, 0}).is_entity_domain());
  EXPECT_TRUE(DyconitId::global_entities().is_entity_domain());
  EXPECT_FALSE(DyconitId::chunk_blocks({0, 0}).is_entity_domain());
}

TEST(DyconitIdTest, ToStringIsReadable) {
  EXPECT_EQ(DyconitId::chunk_blocks({3, -4}).to_string(), "chunk-blocks(3,-4)");
}

}  // namespace
}  // namespace dyconits::dyconit
