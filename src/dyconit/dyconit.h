// A single dyconit: one consistency unit with a set of subscribers, each
// holding an outgoing update queue and its own inconsistency bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dyconit/bounds.h"
#include "dyconit/id.h"
#include "dyconit/update.h"

namespace dyconits::dyconit {

enum class FlushReason : std::uint8_t {
  Staleness = 0,  // oldest queued update reached the staleness bound
  Numerical = 1,  // accumulated weight exceeded the numerical bound
  Forced = 2,     // explicit flush (snapshot, shutdown, test)
};

/// Aggregate middleware counters; owned by DyconitSystem, updated by every
/// dyconit operation. `delivered` counts updates handed to the sink;
/// `coalesced` counts updates absorbed into a queued predecessor — each one
/// is a message the network never carries.
struct Stats {
  std::uint64_t enqueued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_subscriber = 0;
  std::uint64_t dropped_unsubscribe = 0;
  std::uint64_t flushes_staleness = 0;
  std::uint64_t flushes_numerical = 0;
  std::uint64_t flushes_forced = 0;
  double weight_delivered = 0.0;
  /// Snapshot catch-up: queues dropped for being too far behind, and the
  /// updates discarded with them (replaced by fresh state from the game).
  std::uint64_t snapshots_requested = 0;
  std::uint64_t dropped_snapshot = 0;
  /// Recovery handshakes served (DyconitSystem::resync_subscriber calls).
  std::uint64_t resyncs = 0;
  /// Overload shedding (DESIGN.md §10): updates dropped from queues by a
  /// ShedDirective instead of being delivered, and their total weight.
  /// Shed entity moves are absolute state superseded by the next move;
  /// shed block backlog is converted into a snapshot request.
  std::uint64_t shed_updates = 0;
  double shed_weight = 0.0;

  /// When enabled (see DyconitSystem::set_record_staleness), per-update
  /// queueing delay in ms at flush time.
  bool record_staleness = false;
  std::vector<double> staleness_ms;

  std::uint64_t flushes() const {
    return flushes_staleness + flushes_numerical + flushes_forced;
  }
};

/// Overload-shedding directive for one subscriber (DESIGN.md §10). The
/// host's overload controller installs these before a flush round; they
/// are consulted inside the take step on both the serial and the sharded
/// path, so shed work is a pure function of the queue contents and
/// identical for any thread count.
struct ShedDirective {
  /// Drop queued entity-move updates (coalesce-key namespace 1). Safe to
  /// shed: moves carry absolute positions, so the next enqueued move for
  /// the same entity supersedes anything dropped.
  bool shed_entity_moves = false;
  /// Snapshot-threshold override (tighter wins over the global threshold):
  /// converts a deep backlog into a snapshot request — the game resends
  /// fresh state, repairing consistency instead of replaying the flood.
  std::size_t snapshot_threshold_override = 0;

  bool any() const { return shed_entity_moves || snapshot_threshold_override > 0; }
};

/// Per-subscriber shed directives, keyed by subscriber id. Read-only
/// during a flush round (workers look directives up concurrently).
using ShedDirectiveMap = std::unordered_map<SubscriberId, ShedDirective>;

/// Flush work taken from one (dyconit, subscriber) queue but not yet
/// accounted or delivered. The flush path is split in two so it can run
/// sharded (DESIGN.md §9): Dyconit::take_due_into fills a PendingFlush on a
/// worker thread (touching only that subscriber's queue), and the tick
/// thread settles it — stats, sink — in canonical order, so counters and
/// wire bytes match the serial oracle exactly.
struct PendingFlush {
  enum class Kind : std::uint8_t {
    None = 0,      ///< nothing due
    Flush = 1,     ///< `updates` must be delivered
    Snapshot = 2,  ///< queue was dropped; ask the sink for a snapshot
  };
  Kind kind = Kind::None;
  FlushReason reason = FlushReason::Forced;
  std::vector<Update> updates;  ///< Flush: queue contents in enqueue order
  std::size_t dropped = 0;      ///< Snapshot: updates discarded with the queue
  /// Updates (and weight) removed by a ShedDirective in this take. Carried
  /// here — not accounted on the worker — so shed counters fold into Stats
  /// on the tick thread in canonical order like everything else.
  std::size_t shed = 0;
  double shed_weight = 0.0;

  /// Back to the default state, keeping the updates vector's capacity so a
  /// reused PendingFlush recycles storage instead of reallocating.
  void reset() {
    kind = Kind::None;
    reason = FlushReason::Forced;
    updates.clear();
    dropped = 0;
    shed = 0;
    shed_weight = 0.0;
  }
};

/// Folds one pending flush into the aggregate counters. Must run on the
/// tick thread in canonical settle order: weight_delivered is a floating-
/// point sum, so the summation order has to match the serial oracle
/// exactly (FP addition is not associative).
void account_flush(const PendingFlush& p, SimTime now, Stats& stats);

/// Insertion-ordered outgoing queue with in-place coalescing. Steady state
/// is allocation-free: the update vector's capacity circulates through
/// take_into, and the coalescing index is a flat table that is allocated on
/// the first keyed enqueue, only grows, and is reused across takes.
class SubscriberQueue {
 public:
  /// Returns true if the update was coalesced into an existing entry.
  bool enqueue(const Update& u);

  bool empty() const { return updates_.empty(); }
  std::size_t size() const { return updates_.size(); }
  double total_weight() const { return total_weight_; }

  /// Age-of-oldest entry; only meaningful when !empty(). Entries keep their
  /// first-enqueue timestamp across coalescing, and enqueue times are
  /// monotone, so the front entry is the oldest.
  SimTime oldest_created() const { return updates_.front().created; }

  bool violates(const Bounds& b, SimTime now) const {
    if (empty()) return false;
    return (now - oldest_created()) >= b.staleness || total_weight_ > b.numerical;
  }

  /// Which bound tripped (call only when violates() is true).
  FlushReason violation_reason(const Bounds& b, SimTime now) const {
    return (now - oldest_created()) >= b.staleness ? FlushReason::Staleness
                                                   : FlushReason::Numerical;
  }

  /// Moves out all queued updates in enqueue order and resets the queue.
  /// Allocates: the queue starts over with no update storage.
  std::vector<Update> take_all();

  /// take_all without the allocation: swaps the queue's storage into `out`
  /// (cleared first, capacity kept), so in steady state a flush round
  /// recycles vector capacity between the queue and the caller's scratch
  /// instead of allocating per flush. Contents and order are identical to
  /// take_all.
  void take_into(std::vector<Update>& out);

  /// Discards everything queued (snapshot catch-up) without surrendering
  /// the queue's storage.
  void drop_all();

  /// Overload shedding: removes every queued entity-move update (coalesce
  /// key namespace 1), compacting the survivors in place in their original
  /// order (no allocation). Returns how many were removed and adds their
  /// total weight to *weight.
  std::size_t shed_entity_moves(double* weight);

  const std::vector<Update>& peek() const { return updates_; }

  /// Slots in the coalescing index: 0 until the first keyed enqueue, then a
  /// power of two that never shrinks.
  std::size_t index_capacity() const { return slots_.size(); }

  /// Where the index starts probing for `key` in a table of `capacity`
  /// slots (a power of two, at least 2). Public so tests can pick keys that
  /// share a probe run.
  static std::size_t home_slot(std::uint64_t key, std::size_t capacity);

 private:
  // Flat coalescing index: coalesce_key -> position in updates_, open
  // addressing with linear probing over a power-of-two table kept at most
  // half full. A slot is live only while it carries the current generation,
  // so clearing the index is one increment: no slot is written, and no slot
  // of an earlier generation can survive to point past updates_ (clearing
  // slots one by one would cut the probe chains of keys not yet cleared).
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t pos = 0;
    std::uint32_t gen = 0;  ///< live iff == gen_
  };

  void clear_index();
  /// Re-inserts every keyed update at its position, after the table grew to
  /// `capacity` slots or updates_ was compacted.
  void rebuild_index(std::size_t capacity);
  /// The live slot holding `key`, or the empty slot where it would go.
  std::size_t probe(std::uint64_t key) const;
  /// Makes the empty `slot` map `key` to `pos`.
  void claim(std::size_t slot, std::uint64_t key, std::size_t pos);

  std::vector<Update> updates_;
  std::vector<Slot> slots_;
  std::uint32_t gen_ = 1;    ///< slots start at generation 0: empty
  std::uint32_t keyed_ = 0;  ///< live slots (keyed updates in updates_)
  double total_weight_ = 0.0;
};

class Dyconit;

/// The flush index a DyconitSystem keeps over its dyconits: which of them
/// hold queued updates, and how many updates are queued in all. Every
/// dyconit the system creates reports here when one of its queues turns
/// non-empty and whenever updates join or leave its queues, so a flush
/// round visits only dyconits with work and total_queued() is O(1). Tick
/// thread only: sharded flush workers never touch it.
class FlushIndex {
 public:
  /// Every dyconit holding a queued update, plus any emptied since the last
  /// prune(), in canonical (DyconitId) order.
  const std::vector<Dyconit*>& sorted();
  /// Forgets dyconits whose queues are all empty. Call after a flush round.
  void prune();
  std::size_t queued() const { return queued_; }

 private:
  friend class Dyconit;
  std::vector<Dyconit*> active_;
  bool sorted_ = true;
  std::size_t queued_ = 0;
};

class Dyconit {
 public:
  /// `index` (optional) is the owning system's flush index; a standalone
  /// dyconit keeps only its own per-queue index.
  Dyconit(DyconitId id, Bounds default_bounds, FlushIndex* index = nullptr);
  // The queue index holds pointers into subs_ and index_ holds `this`.
  Dyconit(const Dyconit&) = delete;
  Dyconit& operator=(const Dyconit&) = delete;

  DyconitId id() const { return id_; }

  /// Bounds applied to subscribers that don't specify their own.
  Bounds default_bounds() const { return default_bounds_; }
  void set_default_bounds(Bounds b) { default_bounds_ = b; }

  /// Subscribing twice updates the bounds and keeps the queue.
  void subscribe(SubscriberId sub, Bounds b);
  void subscribe(SubscriberId sub) { subscribe(sub, default_bounds_); }

  /// Unsubscribes and drops any queued updates (counted in stats).
  void unsubscribe(SubscriberId sub, Stats& stats);

  bool subscribed(SubscriberId sub) const { return subs_.count(sub) > 0; }
  std::size_t subscriber_count() const { return subs_.size(); }

  void set_bounds(SubscriberId sub, Bounds b);
  /// Bounds of a subscriber; default bounds if not subscribed.
  Bounds bounds_of(SubscriberId sub) const;

  /// Queues `u` toward every subscriber except `exclude` (the originator,
  /// which already knows its own action).
  void enqueue(const Update& u, SubscriberId exclude, Stats& stats);

  /// Flushes every subscriber queue that violates its bounds at `now`, in
  /// canonical (ascending subscriber id) order. If `snapshot_threshold` > 0,
  /// a queue holding more updates than that is dropped and the sink is
  /// asked for a snapshot instead. `shed` (optional) applies per-subscriber
  /// overload directives before the due check. Only queues that hold
  /// updates are visited: an empty queue is never due and has nothing to
  /// shed. Sink callbacks must not call back into this dyconit.
  void flush_due(SimTime now, FlushSink& sink, Stats& stats,
                 std::size_t snapshot_threshold = 0,
                 const ShedDirectiveMap* shed = nullptr);

  /// Phase 1 of a sharded flush (safe off the tick thread): applies `shed`,
  /// then decides whether `sub`'s queue is due at `now` and, if so, takes
  /// its contents into `p` (reset first, updates capacity kept). Touches
  /// only this subscriber's queue slot — no stats, no sink, no index — so
  /// distinct subscribers may be taken concurrently. The capacity swap in
  /// SubscriberQueue::take_into makes a caller that reuses one PendingFlush
  /// per shard allocation-free once capacities warm.
  void take_due_into(SubscriberId sub, SimTime now, std::size_t snapshot_threshold,
                     const ShedDirective& shed, PendingFlush& p);

  /// Phase 2 (tick thread, canonical order): folds `p` into the queued
  /// counts (fold_taken), accounts it and hands it to the sink (deliver or
  /// request_snapshot).
  void settle(SubscriberId sub, PendingFlush&& p, SimTime now, FlushSink& sink,
              Stats& stats);

  /// Tick thread: subtracts the updates a take_due_into removed (taken,
  /// dropped or shed) from the queued counts. settle() does this itself;
  /// the sharded merge, which emits pre-packed frames instead of settling,
  /// calls it directly.
  void fold_taken(const PendingFlush& p);

  /// Calls fn(sub) for every subscriber whose queue holds updates (plus any
  /// emptied since the last flush round), in canonical (ascending id)
  /// order: this dyconit's share of the sharded flush plan.
  template <class Fn>
  void for_each_nonempty(Fn&& fn) {
    sort_nonempty();
    for (const auto& [sub, slot] : nonempty_) fn(sub);
  }

  /// Tick thread: unlists queues emptied since the last flush round. The
  /// sharded path calls it after its merge; flush_due calls it itself.
  void prune_nonempty();

  /// Unconditionally flushes one subscriber (no-op if queue empty). Takes
  /// through the same reused scratch as flush_due, so it does not allocate
  /// once capacities warm; like flush_due, not for use from a sink callback.
  void flush_subscriber(SubscriberId sub, SimTime now, FlushSink& sink, Stats& stats,
                        FlushReason reason = FlushReason::Forced);

  void flush_all(SimTime now, FlushSink& sink, Stats& stats);

  /// Visits (subscriber, mutable bounds, queue) — used by adaptive policies
  /// to retune bounds in place.
  void for_each_subscriber(
      const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn);

  /// Updates queued across all subscribers; O(1).
  std::size_t total_queued() const { return queued_; }
  bool idle() const { return subs_.empty(); }

 private:
  friend class FlushIndex;

  struct Sub {
    Bounds bounds;
    SubscriberQueue queue;
    bool listed = false;  ///< present in nonempty_
  };

  /// Shared core of take_due_into and flush_due once the Sub slot is
  /// resolved.
  void take_due_core(Sub& s, SimTime now, std::size_t snapshot_threshold,
                     const ShedDirective& shed, PendingFlush& p);

  /// Queued-count bookkeeping, mirrored into index_. The first update
  /// queued lists this dyconit in index_.
  void add_queued(std::size_t n);
  void remove_queued(std::size_t n);
  void sort_nonempty();

  DyconitId id_;
  Bounds default_bounds_;
  std::unordered_map<SubscriberId, Sub> subs_;

  // Queue index (tick thread only). nonempty_ lists every queue that holds
  // updates as (id, slot) pairs, plus queues emptied outside a flush round
  // (flush_subscriber), which the next round unlists. Slots are
  // unordered_map nodes, stable until unsubscribe, which unlists them.
  // nonempty_sorted_ is false after an append out of canonical order.
  std::vector<std::pair<SubscriberId, Sub*>> nonempty_;
  bool nonempty_sorted_ = true;
  std::size_t queued_ = 0;
  FlushIndex* index_ = nullptr;
  bool indexed_ = false;  ///< present in index_->active_

  // Flush-round scratch (tick thread only), reused so the serial path stays
  // allocation-free in steady state: take_scratch_ circulates update-vector
  // capacity with the queues, views_scratch_ backs settle's borrowed views.
  PendingFlush take_scratch_;
  std::vector<FlushSink::FlushedUpdate> views_scratch_;
};

}  // namespace dyconits::dyconit
