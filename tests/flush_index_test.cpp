// Differential property test of the flush index (DESIGN.md §9): a tick
// visits only queues that hold updates, and that must be exact. Random
// operation sequences drive two DyconitSystems in lockstep. The subject
// uses its real tick (serial, or sharded at 2 and 4 threads), flush and
// resync paths; the reference flushes by scanning every (dyconit,
// subscriber) pair in canonical order through the per-pair primitives
// (take_due_into + settle): the definition the index must reproduce.
// After every step the sink call sequences, the full Stats ledger (FP
// fields bitwise) and the per-dyconit queue counts must agree, and
// total_queued() must equal a brute-force sum.
//
// Labelled `determinism`, so scripts/verify.sh also runs it under TSan,
// where the 2- and 4-thread passes exercise the sharded merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dyconit/system.h"
#include "protocol/codec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dyconits::dyconit {
namespace {

using protocol::BlockChange;
using protocol::EntityMove;

/// One sink or host call, with everything the wire would see of it.
struct Event {
  struct Item {
    std::vector<std::uint8_t> bytes;
    std::int64_t created_us = 0;
    std::uint64_t weight_bits = 0;
    bool operator==(const Item&) const = default;
  };
  char kind = 'D';  // 'D' deliver, 'S' snapshot request
  SubscriberId to = kNoSubscriber;
  DyconitId unit;   // snapshot requests only
  std::vector<Item> items;
  bool operator==(const Event&) const = default;
};

std::vector<Event::Item> items_of(const std::vector<FlushSink::FlushedUpdate>& updates) {
  std::vector<Event::Item> out;
  for (const auto& u : updates) {
    out.push_back({protocol::encode(*u.msg).payload, u.created.count_micros(),
                   std::bit_cast<std::uint64_t>(u.weight)});
  }
  return out;
}

/// Records sink calls in order. Doubles as the sharded path's host: workers
/// stage a copy of each batch per shard, and emit_packed logs it in merge
/// order, exactly where the serial path would have called deliver.
class RecordingHost : public FlushSink, public ParallelFlushHost {
 public:
  void deliver(SubscriberId to, const std::vector<FlushedUpdate>& updates) override {
    log.push_back({'D', to, {}, items_of(updates)});
  }
  void request_snapshot(SubscriberId to, const DyconitId& unit) override {
    log.push_back({'S', to, unit, {}});
  }
  void begin_flush_round(std::size_t shards) override {
    staged_.assign(shards, {});
  }
  std::uint32_t pack_flush(std::size_t shard, SubscriberId to,
                           const std::vector<FlushedUpdate>& updates) override {
    staged_[shard].push_back({'D', to, {}, items_of(updates)});
    return static_cast<std::uint32_t>(staged_[shard].size() - 1);
  }
  void emit_packed(std::size_t shard, std::uint32_t handle, SubscriberId) override {
    log.push_back(std::move(staged_[shard][handle]));
  }

  std::vector<Event> log;

 private:
  std::vector<std::vector<Event>> staged_;
};

// ------------------------------------------------ reference (full scan)

std::vector<Dyconit*> all_sorted(DyconitSystem& sys) {
  std::vector<Dyconit*> out;
  sys.for_each([&](Dyconit& d) { out.push_back(&d); });
  std::sort(out.begin(), out.end(),
            [](const Dyconit* a, const Dyconit* b) { return a->id() < b->id(); });
  return out;
}

std::vector<SubscriberId> subscribers_sorted(Dyconit& d) {
  std::vector<SubscriberId> out;
  d.for_each_subscriber(
      [&](SubscriberId sub, Bounds&, const SubscriberQueue&) { out.push_back(sub); });
  std::sort(out.begin(), out.end());
  return out;
}

void reference_tick(DyconitSystem& sys, FlushSink& sink) {
  const SimTime now = sys.clock().now();
  for (Dyconit* d : all_sorted(sys)) {
    for (const SubscriberId sub : subscribers_sorted(*d)) {
      const ShedDirective* dir = sys.shed_directive(sub);
      PendingFlush p;
      d->take_due_into(sub, now, sys.snapshot_threshold(),
                       dir != nullptr ? *dir : ShedDirective{}, p);
      if (p.kind != PendingFlush::Kind::None || p.shed > 0) {
        d->settle(sub, std::move(p), now, sink, sys.stats());
      }
    }
  }
}

void reference_flush_subscriber(DyconitSystem& sys, SubscriberId sub, FlushSink& sink) {
  for (Dyconit* d : all_sorted(sys)) {
    d->flush_subscriber(sub, sys.clock().now(), sink, sys.stats());
  }
}

void reference_flush_all(DyconitSystem& sys, FlushSink& sink) {
  for (Dyconit* d : all_sorted(sys)) {
    for (const SubscriberId sub : subscribers_sorted(*d)) {
      d->flush_subscriber(sub, sys.clock().now(), sink, sys.stats());
    }
  }
}

void reference_resync(DyconitSystem& sys, SubscriberId sub, FlushSink& sink) {
  for (Dyconit* d : all_sorted(sys)) {
    if (!d->subscribed(sub)) continue;
    d->flush_subscriber(sub, sys.clock().now(), sink, sys.stats());
    sink.request_snapshot(sub, d->id());
    ++sys.stats().snapshots_requested;
  }
  ++sys.stats().resyncs;
}

std::size_t brute_total_queued(DyconitSystem& sys) {
  std::size_t n = 0;
  sys.for_each([&](Dyconit& d) {
    d.for_each_subscriber(
        [&](SubscriberId, Bounds&, const SubscriberQueue& q) { n += q.size(); });
  });
  return n;
}

/// (subscribers, queued) of every dyconit that has subscribers.
std::map<DyconitId, std::pair<std::size_t, std::size_t>> live_dyconits(DyconitSystem& sys) {
  std::map<DyconitId, std::pair<std::size_t, std::size_t>> out;
  sys.for_each([&](Dyconit& d) {
    if (!d.idle()) out[d.id()] = {d.subscriber_count(), d.total_queued()};
  });
  return out;
}

void expect_same_stats(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped_no_subscriber, b.dropped_no_subscriber);
  EXPECT_EQ(a.dropped_unsubscribe, b.dropped_unsubscribe);
  EXPECT_EQ(a.flushes_staleness, b.flushes_staleness);
  EXPECT_EQ(a.flushes_numerical, b.flushes_numerical);
  EXPECT_EQ(a.flushes_forced, b.flushes_forced);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.weight_delivered),
            std::bit_cast<std::uint64_t>(b.weight_delivered));
  EXPECT_EQ(a.snapshots_requested, b.snapshots_requested);
  EXPECT_EQ(a.dropped_snapshot, b.dropped_snapshot);
  EXPECT_EQ(a.resyncs, b.resyncs);
  EXPECT_EQ(a.shed_updates, b.shed_updates);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.shed_weight),
            std::bit_cast<std::uint64_t>(b.shed_weight));
  ASSERT_EQ(a.staleness_ms.size(), b.staleness_ms.size());
  for (std::size_t i = 0; i < a.staleness_ms.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.staleness_ms[i]),
              std::bit_cast<std::uint64_t>(b.staleness_ms[i]));
  }
}

// --------------------------------------------------- random operations

const DyconitId kUnits[] = {
    DyconitId::chunk_blocks({0, 0}),    DyconitId::chunk_blocks({1, 0}),
    DyconitId::chunk_entities({0, 0}),  DyconitId::chunk_entities({1, 0}),
    DyconitId::chunk_entities({-1, 2}), DyconitId::region_entities({0, 0}),
    DyconitId::global_blocks(),         DyconitId::global_entities(),
};
constexpr std::uint64_t kSubscribers = 6;

/// Coverage counters: each proves an operation class actually fired.
struct Coverage {
  std::size_t ticks_with_queued = 0;
  std::size_t shed_only_moves = 0;  // queues a shed directive was about to empty
};

class Lockstep {
 public:
  Lockstep(std::uint64_t seed, std::size_t threads)
      : rng_(seed), sut_(clock_), ref_(clock_) {
    if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
    sut_.set_record_staleness(true);
    ref_.set_record_staleness(true);
  }

  void step() {
    const std::uint64_t op = rng_.next_below(100);
    const SubscriberId sub = static_cast<SubscriberId>(rng_.next_below(kSubscribers) + 1);
    const DyconitId unit = kUnits[rng_.next_below(std::size(kUnits))];
    if (op < 12) {
      // Subscribe, or resubscribe with new bounds (the queue is kept).
      const Bounds b = random_bounds();
      sut_.subscribe(unit, sub, b);
      ref_.subscribe(unit, sub, b);
    } else if (op < 17) {
      sut_.unsubscribe(unit, sub);
      ref_.unsubscribe(unit, sub);
    } else if (op < 19) {
      sut_.unsubscribe_all(sub);
      ref_.unsubscribe_all(sub);
    } else if (op < 60) {
      const Update u = random_update();
      const SubscriberId exclude = rng_.chance(0.3) ? sub : kNoSubscriber;
      sut_.update(unit, u, exclude);
      ref_.update(unit, u, exclude);
    } else if (op < 65) {
      ShedDirective d;
      d.shed_entity_moves = rng_.chance(0.7);
      if (rng_.chance(0.3)) d.snapshot_threshold_override = rng_.next_below(4) + 1;
      sut_.set_shed_directive(sub, d);
      ref_.set_shed_directive(sub, d);
    } else if (op < 67) {
      sut_.clear_shed_directives();
      ref_.clear_shed_directives();
    } else if (op < 69) {
      const std::size_t n = rng_.chance(0.5) ? 0 : rng_.next_below(6) + 3;
      sut_.set_snapshot_threshold(n);
      ref_.set_snapshot_threshold(n);
    } else if (op < 73) {
      sut_.flush_subscriber(sub, sut_log_);
      reference_flush_subscriber(ref_, sub, ref_log_);
    } else if (op < 76) {
      sut_.resync_subscriber(sub, sut_log_);
      reference_resync(ref_, sub, ref_log_);
    } else if (op < 77) {
      sut_.flush_all(sut_log_);
      reference_flush_all(ref_, ref_log_);
    } else {
      clock_.advance(SimDuration::millis(static_cast<std::int64_t>(rng_.next_below(80))));
      note_coverage();
      sut_.tick(sut_log_, pool_.get(), pool_ != nullptr ? &sut_log_ : nullptr);
      reference_tick(ref_, ref_log_);
      ticked_ = true;
    }
  }

  /// Every observable must match the reference after each step.
  void check() {
    ASSERT_EQ(sut_log_.log.size(), ref_log_.log.size());
    for (std::size_t i = checked_; i < sut_log_.log.size(); ++i) {
      ASSERT_EQ(sut_log_.log[i], ref_log_.log[i]) << "sink call " << i;
    }
    checked_ = sut_log_.log.size();
    expect_same_stats(sut_.stats(), ref_.stats());
    ASSERT_FALSE(::testing::Test::HasFailure());

    ASSERT_EQ(sut_.total_queued(), brute_total_queued(sut_));
    ASSERT_EQ(ref_.total_queued(), brute_total_queued(ref_));
    ASSERT_EQ(sut_.total_queued(), ref_.total_queued());
    ASSERT_EQ(live_dyconits(sut_), live_dyconits(ref_));
    if (ticked_) {
      // GC ran: no dyconit without subscribers survives a tick.
      ASSERT_EQ(sut_.dyconit_count(), live_dyconits(sut_).size());
      ticked_ = false;
    }
  }

  const Stats& stats() const { return sut_.stats(); }
  const Coverage& coverage() const { return coverage_; }

 private:
  Bounds random_bounds() {
    switch (rng_.next_below(4)) {
      case 0: return Bounds::zero();
      case 1: return Bounds::infinite();
      default:
        return Bounds{
            SimDuration::millis(static_cast<std::int64_t>(rng_.next_below(200) + 20)),
            rng_.next_double_in(0.5, 6.0)};
    }
  }

  Update random_update() {
    Update u;
    u.weight = rng_.next_double_in(0.05, 1.5);
    const std::uint64_t kind = rng_.next_below(3);
    if (kind == 0) {
      // Entity move, coalescing per entity (sheddable).
      const auto entity = static_cast<std::uint32_t>(rng_.next_below(5) + 1);
      u.msg = EntityMove{entity, {rng_.next_double_in(-50, 50), 64, 0}, 0, 0};
      u.coalesce_key = coalesce_key_entity(entity);
    } else {
      const world::BlockPos pos{static_cast<std::int32_t>(rng_.next_below(4)), 64,
                                static_cast<std::int32_t>(rng_.next_below(4))};
      u.msg = BlockChange{pos, rng_.chance(0.5) ? world::Block::Stone : world::Block::Air};
      // Block change coalescing per position, or never coalescing.
      if (kind == 1) u.coalesce_key = coalesce_key_block(pos);
    }
    return u;
  }

  void note_coverage() {
    if (sut_.total_queued() > 0) ++coverage_.ticks_with_queued;
    sut_.for_each([&](Dyconit& d) {
      d.for_each_subscriber([&](SubscriberId s, Bounds&, const SubscriberQueue& q) {
        const ShedDirective* dir = sut_.shed_directive(s);
        if (dir == nullptr || !dir->shed_entity_moves || q.empty()) return;
        const bool only_moves =
            std::all_of(q.peek().begin(), q.peek().end(),
                        [](const Update& u) { return (u.coalesce_key >> 56) == 1; });
        if (only_moves) ++coverage_.shed_only_moves;
      });
    });
  }

  Rng rng_;
  SimClock clock_;
  DyconitSystem sut_;
  DyconitSystem ref_;
  std::unique_ptr<util::ThreadPool> pool_;
  RecordingHost sut_log_;
  RecordingHost ref_log_;
  std::size_t checked_ = 0;
  bool ticked_ = false;
  Coverage coverage_;
};

class FlushIndexDifferential : public ::testing::TestWithParam<std::size_t /*threads*/> {};

TEST_P(FlushIndexDifferential, MatchesFullScanReferenceAfterEveryStep) {
  constexpr std::size_t kSteps = 1500;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Lockstep run(seed, GetParam());
    for (std::size_t i = 0; i < kSteps; ++i) {
      run.step();
      run.check();
      ASSERT_FALSE(HasFailure()) << "step " << i;
    }
    // A comparison of idle systems proves nothing: every operation class
    // must have had an effect.
    const Stats& s = run.stats();
    EXPECT_GT(s.delivered, 0u);
    EXPECT_GT(s.coalesced, 0u);
    EXPECT_GT(s.dropped_no_subscriber, 0u);
    EXPECT_GT(s.dropped_unsubscribe, 0u);
    EXPECT_GT(s.dropped_snapshot, 0u);
    EXPECT_GT(s.shed_updates, 0u);
    EXPECT_GT(s.flushes_forced, 0u);
    EXPECT_GT(s.resyncs, 0u);
    EXPECT_GT(run.coverage().ticks_with_queued, 0u);
    EXPECT_GT(run.coverage().shed_only_moves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, FlushIndexDifferential, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dyconits::dyconit
