#include "dyconit/dyconit.h"

#include <algorithm>
#include <bit>

namespace dyconits::dyconit {

void account_flush(const PendingFlush& p, SimTime now, Stats& stats) {
  switch (p.reason) {
    case FlushReason::Staleness: ++stats.flushes_staleness; break;
    case FlushReason::Numerical: ++stats.flushes_numerical; break;
    case FlushReason::Forced: ++stats.flushes_forced; break;
  }
  for (const Update& u : p.updates) {
    ++stats.delivered;
    stats.weight_delivered += u.weight;
    if (stats.record_staleness) {
      stats.staleness_ms.push_back(
          static_cast<double>((now - u.created).count_micros()) / 1000.0);
    }
  }
}

std::size_t SubscriberQueue::home_slot(std::uint64_t key, std::size_t capacity) {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread the sequential
  // entity ids and packed block positions the game uses as keys.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(capacity)));
}

std::size_t SubscriberQueue::probe(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(key, slots_.size());
  while (slots_[i].gen == gen_ && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void SubscriberQueue::claim(std::size_t slot, std::uint64_t key, std::size_t pos) {
  slots_[slot] = {key, static_cast<std::uint32_t>(pos), gen_};
  ++keyed_;
}

void SubscriberQueue::clear_index() {
  if (keyed_ == 0) return;
  keyed_ = 0;
  if (++gen_ == 0) {
    // Generation wrapped: stale stamps could match again, so empty every
    // slot for real, once per 2^32 clears.
    for (Slot& s : slots_) s.gen = 0;
    gen_ = 1;
  }
}

void SubscriberQueue::rebuild_index(std::size_t capacity) {
  if (capacity != slots_.size()) {
    slots_.assign(capacity, Slot{});
    gen_ = 1;
    keyed_ = 0;
  } else {
    clear_index();
  }
  for (std::size_t i = 0; i < updates_.size(); ++i) {
    const std::uint64_t key = updates_[i].coalesce_key;
    if (key != 0) claim(probe(key), key, i);
  }
}

bool SubscriberQueue::enqueue(const Update& u) {
  total_weight_ += u.weight;
  if (u.coalesce_key != 0) {
    if (2 * (keyed_ + 1) > slots_.size()) {
      rebuild_index(slots_.empty() ? 8 : 2 * slots_.size());
    }
    const std::size_t i = probe(u.coalesce_key);
    if (slots_[i].gen == gen_) {
      // Last write wins: replace the payload in place, keep the original
      // position and creation time, accumulate the weight.
      Update& slot = updates_[slots_[i].pos];
      slot.msg = u.msg;
      slot.weight += u.weight;
      return true;
    }
    claim(i, u.coalesce_key, updates_.size());
  }
  updates_.push_back(u);
  return false;
}

std::vector<Update> SubscriberQueue::take_all() {
  std::vector<Update> out = std::move(updates_);
  updates_.clear();
  clear_index();
  total_weight_ = 0.0;
  return out;
}

void SubscriberQueue::take_into(std::vector<Update>& out) {
  out.clear();
  out.swap(updates_);  // queue inherits out's old capacity; contents unchanged
  clear_index();
  total_weight_ = 0.0;
}

void SubscriberQueue::drop_all() {
  updates_.clear();
  clear_index();
  total_weight_ = 0.0;
}

std::size_t SubscriberQueue::shed_entity_moves(double* weight) {
  double removed_weight = 0.0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < updates_.size(); ++i) {
    if ((updates_[i].coalesce_key >> 56) == 1) {
      removed_weight += updates_[i].weight;
    } else {
      if (kept != i) updates_[kept] = std::move(updates_[i]);
      ++kept;
    }
  }
  const std::size_t removed = updates_.size() - kept;
  if (removed == 0) return 0;
  updates_.erase(updates_.begin() + static_cast<std::ptrdiff_t>(kept), updates_.end());
  rebuild_index(slots_.size());  // survivors moved to new positions
  total_weight_ -= removed_weight;
  if (weight != nullptr) *weight += removed_weight;
  return removed;
}

const std::vector<Dyconit*>& FlushIndex::sorted() {
  if (!sorted_) {
    std::sort(active_.begin(), active_.end(),
              [](const Dyconit* a, const Dyconit* b) { return a->id() < b->id(); });
    sorted_ = true;
  }
  return active_;
}

void FlushIndex::prune() {
  std::erase_if(active_, [](Dyconit* d) {
    if (d->queued_ > 0) return false;
    d->indexed_ = false;
    return true;
  });
}

Dyconit::Dyconit(DyconitId id, Bounds default_bounds, FlushIndex* index)
    : id_(id), default_bounds_(default_bounds), index_(index) {}

void Dyconit::add_queued(std::size_t n) {
  if (n == 0) return;
  queued_ += n;
  if (index_ == nullptr) return;
  index_->queued_ += n;
  if (!indexed_) {
    indexed_ = true;
    if (!index_->active_.empty() && id_ < index_->active_.back()->id()) {
      index_->sorted_ = false;
    }
    index_->active_.push_back(this);
  }
}

void Dyconit::remove_queued(std::size_t n) {
  queued_ -= n;
  if (index_ != nullptr) index_->queued_ -= n;
}

void Dyconit::sort_nonempty() {
  if (nonempty_sorted_) return;
  std::sort(nonempty_.begin(), nonempty_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  nonempty_sorted_ = true;
}

void Dyconit::prune_nonempty() {
  std::erase_if(nonempty_, [](const auto& e) {
    if (!e.second->queue.empty()) return false;
    e.second->listed = false;
    return true;
  });
}

void Dyconit::subscribe(SubscriberId sub, Bounds b) {
  subs_[sub].bounds = b;  // creates if absent, keeps existing queue if present
}

void Dyconit::unsubscribe(SubscriberId sub, Stats& stats) {
  const auto it = subs_.find(sub);
  if (it == subs_.end()) return;
  Sub& s = it->second;
  stats.dropped_unsubscribe += s.queue.size();
  remove_queued(s.queue.size());
  if (s.listed) {
    nonempty_.erase(std::find_if(nonempty_.begin(), nonempty_.end(),
                                 [&](const auto& e) { return e.second == &s; }));
  }
  subs_.erase(it);
}

void Dyconit::set_bounds(SubscriberId sub, Bounds b) {
  const auto it = subs_.find(sub);
  if (it != subs_.end()) it->second.bounds = b;
}

Bounds Dyconit::bounds_of(SubscriberId sub) const {
  const auto it = subs_.find(sub);
  return it == subs_.end() ? default_bounds_ : it->second.bounds;
}

void Dyconit::enqueue(const Update& u, SubscriberId exclude, Stats& stats) {
  if (subs_.empty() || (subs_.size() == 1 && subs_.count(exclude) > 0)) {
    ++stats.dropped_no_subscriber;
    return;
  }
  std::size_t added = 0;
  for (auto& [sub, s] : subs_) {
    if (sub == exclude) continue;
    ++stats.enqueued;
    if (s.queue.enqueue(u)) {
      ++stats.coalesced;  // the queue already held updates, so it is listed
      continue;
    }
    ++added;
    if (!s.listed) {
      s.listed = true;
      if (!nonempty_.empty() && sub < nonempty_.back().first) nonempty_sorted_ = false;
      nonempty_.push_back({sub, &s});
    }
  }
  add_queued(added);
}

void Dyconit::take_due_into(SubscriberId sub, SimTime now,
                            std::size_t snapshot_threshold,
                            const ShedDirective& shed, PendingFlush& p) {
  p.reset();
  const auto it = subs_.find(sub);
  if (it == subs_.end()) return;
  take_due_core(it->second, now, snapshot_threshold, shed, p);
}

void Dyconit::take_due_core(Sub& s, SimTime now, std::size_t snapshot_threshold,
                            const ShedDirective& shed, PendingFlush& p) {
  if (shed.shed_entity_moves && !s.queue.empty()) {
    p.shed = s.queue.shed_entity_moves(&p.shed_weight);
  }
  if (shed.snapshot_threshold_override > 0 &&
      (snapshot_threshold == 0 || shed.snapshot_threshold_override < snapshot_threshold)) {
    snapshot_threshold = shed.snapshot_threshold_override;
  }
  if (snapshot_threshold > 0 && s.queue.size() > snapshot_threshold) {
    // Too far behind: a fresh snapshot is cheaper than the delta flood.
    p.kind = PendingFlush::Kind::Snapshot;
    p.dropped = s.queue.size();
    s.queue.drop_all();
    return;
  }
  if (s.queue.violates(s.bounds, now)) {
    p.kind = PendingFlush::Kind::Flush;
    p.reason = s.queue.violation_reason(s.bounds, now);
    s.queue.take_into(p.updates);
  }
}

void Dyconit::fold_taken(const PendingFlush& p) {
  remove_queued(p.updates.size() + p.dropped + p.shed);
}

void Dyconit::settle(SubscriberId sub, PendingFlush&& p, SimTime now, FlushSink& sink,
                     Stats& stats) {
  fold_taken(p);
  if (p.shed > 0) {
    stats.shed_updates += p.shed;
    stats.shed_weight += p.shed_weight;
  }
  if (p.kind == PendingFlush::Kind::Snapshot) {
    stats.dropped_snapshot += p.dropped;
    ++stats.snapshots_requested;
    sink.request_snapshot(sub, id_);
    return;
  }
  if (p.kind != PendingFlush::Kind::Flush || p.updates.empty()) return;
  account_flush(p, now, stats);
  // Reused scratch (tick thread only); settle never moves from p, so a
  // caller may pass the same PendingFlush again after this returns.
  std::vector<FlushSink::FlushedUpdate>& flushed = views_scratch_;
  flushed.clear();
  flushed.reserve(p.updates.size());
  for (const Update& u : p.updates) flushed.push_back({&u.msg, u.created, u.weight});
  sink.deliver(sub, flushed);
}

void Dyconit::flush_due(SimTime now, FlushSink& sink, Stats& stats,
                        std::size_t snapshot_threshold, const ShedDirectiveMap* shed) {
  // Canonical order: the serial oracle settles subscribers in the same
  // ascending order the parallel merge phase uses (DESIGN.md §9).
  static const ShedDirective kNoShed;
  sort_nonempty();
  for (const auto& [sub, slot] : nonempty_) {
    const ShedDirective* d = &kNoShed;
    if (shed != nullptr) {
      const auto it = shed->find(sub);
      if (it != shed->end()) d = &it->second;
    }
    // take_scratch_ is reused across pairs (and ticks): settle does not
    // move from it, and take_into swaps its capacity back into the queue,
    // so the steady-state loop performs no vector allocations.
    PendingFlush& p = take_scratch_;
    p.reset();
    take_due_core(*slot, now, snapshot_threshold, *d, p);
    if (p.kind != PendingFlush::Kind::None || p.shed > 0) {
      settle(sub, std::move(p), now, sink, stats);
    }
  }
  prune_nonempty();
}

void Dyconit::flush_subscriber(SubscriberId sub, SimTime now, FlushSink& sink,
                               Stats& stats, FlushReason reason) {
  const auto it = subs_.find(sub);
  if (it == subs_.end() || it->second.queue.empty()) return;
  PendingFlush& p = take_scratch_;  // reused as in flush_due: no allocation
  p.reset();
  p.kind = PendingFlush::Kind::Flush;
  p.reason = reason;
  it->second.queue.take_into(p.updates);
  settle(sub, std::move(p), now, sink, stats);
}

void Dyconit::flush_all(SimTime now, FlushSink& sink, Stats& stats) {
  sort_nonempty();
  for (const auto& [sub, slot] : nonempty_) {
    flush_subscriber(sub, now, sink, stats, FlushReason::Forced);
  }
  prune_nonempty();
}

void Dyconit::for_each_subscriber(
    const std::function<void(SubscriberId, Bounds&, const SubscriberQueue&)>& fn) {
  for (auto& [sub, s] : subs_) fn(sub, s.bounds, s.queue);
}

}  // namespace dyconits::dyconit
