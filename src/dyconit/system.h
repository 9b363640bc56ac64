// DyconitSystem — the middleware facade the game server talks to.
//
// The integration surface is deliberately small (the paper's "thin
// middleware" claim): the server (1) subscribes/unsubscribes players as
// their interest sets change, (2) routes every state update through
// update(), and (3) calls tick() once per game tick with a sink that packs
// flushed updates into protocol frames. Everything else — queues, bounds
// enforcement, coalescing — is internal.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dyconit/dyconit.h"
#include "util/sim_time.h"

namespace dyconits::util {
class ThreadPool;
}

namespace dyconits::dyconit {

/// Server-side half of the parallel flush pipeline (DESIGN.md §9). Workers
/// call pack_flush concurrently — one call per due (dyconit, subscriber)
/// pair, staging serialized frames shard-locally and reading shared server
/// state only — and the tick thread then calls emit_packed in canonical
/// order to stamp sequence numbers and put the staged frames on the wire.
/// The split keeps net/session types out of the dyconit layer and keeps
/// every shared-state mutation on the tick thread.
class ParallelFlushHost {
 public:
  virtual ~ParallelFlushHost() = default;

  /// Tick thread, before workers start: size per-shard staging for a round.
  virtual void begin_flush_round(std::size_t shards) = 0;

  /// Worker context: packs one flushed batch into shard `shard`'s staging
  /// and returns a handle for emit_packed. Must not write anything outside
  /// that shard's staging.
  virtual std::uint32_t pack_flush(
      std::size_t shard, SubscriberId to,
      const std::vector<FlushSink::FlushedUpdate>& updates) = 0;

  /// Tick thread, canonical order: sends the frames staged under `handle`.
  virtual void emit_packed(std::size_t shard, std::uint32_t handle,
                           SubscriberId to) = 0;
};

/// Deterministic shard assignment for a subscriber's flush work: a
/// splitmix64 finalizer over the id, mod `shards`. Never std::hash — its
/// value is implementation-defined and the shard function is part of the
/// determinism contract (DESIGN.md §9).
std::size_t flush_shard_of(SubscriberId sub, std::size_t shards);

class DyconitSystem {
 public:
  explicit DyconitSystem(const SimClock& clock) : clock_(clock) {}
  // Every dyconit holds a pointer to index_.
  DyconitSystem(const DyconitSystem&) = delete;
  DyconitSystem& operator=(const DyconitSystem&) = delete;

  /// Creates the dyconit on first use. `default_bounds` only applies at
  /// creation; existing dyconits keep their configuration.
  Dyconit& get_or_create(DyconitId id, Bounds default_bounds = Bounds::zero());
  Dyconit* find(DyconitId id);
  const Dyconit* find(DyconitId id) const;

  void subscribe(DyconitId id, SubscriberId sub, Bounds b);
  void unsubscribe(DyconitId id, SubscriberId sub);
  /// Drops every subscription of `sub` (player disconnect).
  void unsubscribe_all(SubscriberId sub);
  bool is_subscribed(DyconitId id, SubscriberId sub) const;
  void set_bounds(DyconitId id, SubscriberId sub, Bounds b);

  /// Queues an update for all subscribers of `id` except `exclude`. If the
  /// dyconit does not exist the update has no subscribers: it is dropped
  /// and counted in Stats::dropped_no_subscriber, and no dyconit is created.
  void update(DyconitId id, Update u, SubscriberId exclude = kNoSubscriber);

  /// One middleware tick: flushes every (dyconit, subscriber) queue that
  /// violates its bounds at clock.now() in canonical (dyconit, subscriber)
  /// order, then garbage-collects dyconits with no subscribers. Only queues
  /// that hold updates are visited (FlushIndex), so the cost follows the
  /// queued work, not the number of subscriptions. Sink callbacks must not
  /// call back into the system.
  void tick(FlushSink& sink);

  /// The same tick, sharded (DESIGN.md §9): flush work is partitioned by
  /// flush_shard_of(subscriber) across `pool`; workers take due queues and
  /// pack frames into `host`'s per-shard staging, then the calling thread
  /// merges — stats accounting and frame emission — in the same canonical
  /// order the serial path uses, so wire bytes and counters are identical
  /// byte for byte. Falls back to the serial path when pool/host is null or
  /// the pool has one executor.
  void tick(FlushSink& sink, util::ThreadPool* pool, ParallelFlushHost* host);

  /// Forced full flush (server shutdown, snapshot, tests).
  void flush_all(FlushSink& sink);
  /// Forced flush of everything owed to one subscriber.
  void flush_subscriber(SubscriberId sub, FlushSink& sink);

  /// Recovery handshake (DESIGN.md §18): for every dyconit `sub` is
  /// subscribed to, flush the owed queue, then ask the game for an
  /// authoritative snapshot (FlushSink::request_snapshot) so state lost on
  /// the wire is replayed. The subscriber's queues are empty afterwards —
  /// it is provably caught up as far as the middleware is concerned.
  void resync_subscriber(SubscriberId sub, FlushSink& sink);

  void for_each(const std::function<void(Dyconit&)>& fn);

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }
  void set_record_staleness(bool on) { stats_.record_staleness = on; }

  /// Queues longer than this are dropped at tick() in favor of a snapshot
  /// (FlushSink::request_snapshot). 0 disables.
  void set_snapshot_threshold(std::size_t n) { snapshot_threshold_ = n; }
  std::size_t snapshot_threshold() const { return snapshot_threshold_; }

  /// Overload control (DESIGN.md §10): installs the shed directive applied
  /// to every queue owed to `sub` at subsequent tick()s (both serial and
  /// sharded paths), until cleared. A directive with any()==false clears.
  void set_shed_directive(SubscriberId sub, ShedDirective d);
  void clear_shed_directives() { shed_.clear(); }
  /// The directive for `sub`, or nullptr if none installed.
  const ShedDirective* shed_directive(SubscriberId sub) const;

  const SimClock& clock() const { return clock_; }
  std::size_t dyconit_count() const { return dyconits_.size(); }
  /// Updates queued across every queue; O(1).
  std::size_t total_queued() const { return index_.queued(); }

 private:
  /// Erases the dyconits in idle_ that still have no subscribers.
  void gc();

  const SimClock& clock_;
  FlushIndex index_;
  std::unordered_map<DyconitId, std::unique_ptr<Dyconit>> dyconits_;
  /// GC candidates: dyconits created or left without subscribers since the
  /// last gc(). Only these can be idle, so gc() never walks the whole map.
  std::unordered_set<DyconitId> idle_;
  Stats stats_;
  std::size_t snapshot_threshold_ = 0;
  /// Read-only during a flush round; workers look directives up
  /// concurrently, the tick thread mutates between rounds.
  ShedDirectiveMap shed_;

  // Parallel-tick scratch, reused across rounds to avoid steady-state
  // allocation. plan_ lists due-check work in canonical order, one task per
  // queue in the flush index; results_[i] is written by exactly one worker
  // (the shard owning plan_[i].sub).
  struct FlushTask {
    Dyconit* d = nullptr;
    SubscriberId sub = kNoSubscriber;
  };
  struct FlushResult {
    PendingFlush pending;
    std::uint32_t handle = 0;
    std::uint32_t shard = 0;
  };
  std::vector<FlushTask> plan_;
  std::vector<FlushResult> results_;
};

}  // namespace dyconits::dyconit
