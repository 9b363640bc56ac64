#include "dyconit/system.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/thread_pool.h"

namespace dyconits::dyconit {

std::size_t flush_shard_of(SubscriberId sub, std::size_t shards) {
  if (shards <= 1) return 0;
  std::uint64_t z = static_cast<std::uint64_t>(sub) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % shards);
}

Dyconit& DyconitSystem::get_or_create(DyconitId id, Bounds default_bounds) {
  auto it = dyconits_.find(id);
  if (it != dyconits_.end()) return *it->second;
  auto [ins, _] =
      dyconits_.emplace(id, std::make_unique<Dyconit>(id, default_bounds, &index_));
  idle_.insert(id);  // no subscribers yet
  return *ins->second;
}

void DyconitSystem::gc() {
  // GC: a dyconit with no subscribers holds no queues (enqueue drops when
  // subscriber-less), so it can be removed without losing updates. It is
  // not in the flush index either: the round just before pruned it.
  TRACE_SCOPE("dyconit.gc");
  if (idle_.empty()) return;
  for (const DyconitId& id : idle_) {
    const auto it = dyconits_.find(id);
    if (it != dyconits_.end() && it->second->idle()) dyconits_.erase(it);
  }
  idle_.clear();
}

Dyconit* DyconitSystem::find(DyconitId id) {
  const auto it = dyconits_.find(id);
  return it == dyconits_.end() ? nullptr : it->second.get();
}

const Dyconit* DyconitSystem::find(DyconitId id) const {
  const auto it = dyconits_.find(id);
  return it == dyconits_.end() ? nullptr : it->second.get();
}

void DyconitSystem::subscribe(DyconitId id, SubscriberId sub, Bounds b) {
  get_or_create(id).subscribe(sub, b);
}

void DyconitSystem::unsubscribe(DyconitId id, SubscriberId sub) {
  Dyconit* d = find(id);
  if (d == nullptr) return;
  d->unsubscribe(sub, stats_);
  if (d->idle()) idle_.insert(id);
}

void DyconitSystem::unsubscribe_all(SubscriberId sub) {
  for (auto& [id, d] : dyconits_) {
    if (!d->subscribed(sub)) continue;
    d->unsubscribe(sub, stats_);
    if (d->idle()) idle_.insert(id);
  }
}

bool DyconitSystem::is_subscribed(DyconitId id, SubscriberId sub) const {
  const Dyconit* d = find(id);
  return d != nullptr && d->subscribed(sub);
}

void DyconitSystem::set_bounds(DyconitId id, SubscriberId sub, Bounds b) {
  if (Dyconit* d = find(id)) d->set_bounds(sub, b);
}

void DyconitSystem::update(DyconitId id, Update u, SubscriberId exclude) {
  Dyconit* d = find(id);
  if (d == nullptr) {
    ++stats_.dropped_no_subscriber;
    return;
  }
  if (u.created == SimTime::zero()) u.created = clock_.now();
  d->enqueue(u, exclude, stats_);
}

void DyconitSystem::set_shed_directive(SubscriberId sub, ShedDirective d) {
  if (d.any()) {
    shed_[sub] = d;
  } else {
    shed_.erase(sub);
  }
}

const ShedDirective* DyconitSystem::shed_directive(SubscriberId sub) const {
  const auto it = shed_.find(sub);
  return it == shed_.end() ? nullptr : &it->second;
}

void DyconitSystem::tick(FlushSink& sink) { tick(sink, nullptr, nullptr); }

void DyconitSystem::tick(FlushSink& sink, util::ThreadPool* pool,
                         ParallelFlushHost* host) {
  const SimTime now = clock_.now();
  const std::size_t shards =
      (pool != nullptr && host != nullptr) ? pool->concurrency() : 1;

  const ShedDirectiveMap* shed = shed_.empty() ? nullptr : &shed_;

  if (shards <= 1) {
    TRACE_SCOPE("dyconit.flush_due");
    for (Dyconit* d : index_.sorted()) {
      d->flush_due(now, sink, stats_, snapshot_threshold_, shed);
    }
    index_.prune();
    gc();
    return;
  }

  // Phase 1 (workers): every indexed (dyconit, subscriber) queue is checked
  // and, if due, taken and packed into shard-local staging. A pair's shard
  // is a pure function of the subscriber id, so no two shards ever touch
  // the same subscriber's queue or session, and sessions/stats stay
  // read-only. So does the flush index: emptied queues are folded into it
  // in the merge phase, on this thread.
  plan_.clear();
  for (Dyconit* d : index_.sorted()) {
    d->for_each_nonempty([&](SubscriberId sub) { plan_.push_back({d, sub}); });
  }
  results_.resize(plan_.size());
  host->begin_flush_round(shards);
  {
    TRACE_SCOPE("dyconit.flush_workers");
    pool->run_shards([&](std::size_t shard) {
      TRACE_SCOPE("dyconit.flush_shard");
      static const ShedDirective kNoShed;
      std::vector<FlushSink::FlushedUpdate> views;
      for (std::size_t i = 0; i < plan_.size(); ++i) {
        if (flush_shard_of(plan_[i].sub, shards) != shard) continue;
        FlushResult& r = results_[i];
        const ShedDirective* dir = &kNoShed;
        if (shed != nullptr) {
          const auto it = shed->find(plan_[i].sub);
          if (it != shed->end()) dir = &it->second;
        }
        plan_[i].d->take_due_into(plan_[i].sub, now, snapshot_threshold_, *dir,
                                  r.pending);
        r.shard = static_cast<std::uint32_t>(shard);
        r.handle = 0;
        if (r.pending.kind == PendingFlush::Kind::Flush) {
          views.clear();
          views.reserve(r.pending.updates.size());
          for (const Update& u : r.pending.updates) {
            views.push_back({&u.msg, u.created, u.weight});
          }
          r.handle = host->pack_flush(shard, plan_[i].sub, views);
        }
      }
    });
  }

  // Phase 2 (tick thread): settle in canonical order — the exact order the
  // serial oracle uses — so stats (including the non-associative
  // weight_delivered sum) and the wire byte stream are identical.
  {
    TRACE_SCOPE("dyconit.flush_merge");
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      FlushResult& r = results_[i];
      // Shed counters fold in before the kind switch, mirroring settle():
      // canonical order keeps the shed_weight FP sum oracle-identical.
      if (r.pending.shed > 0) {
        stats_.shed_updates += r.pending.shed;
        stats_.shed_weight += r.pending.shed_weight;
      }
      switch (r.pending.kind) {
        case PendingFlush::Kind::None:
          break;
        case PendingFlush::Kind::Snapshot:
          stats_.dropped_snapshot += r.pending.dropped;
          ++stats_.snapshots_requested;
          sink.request_snapshot(plan_[i].sub, plan_[i].d->id());
          break;
        case PendingFlush::Kind::Flush:
          account_flush(r.pending, now, stats_);
          host->emit_packed(r.shard, r.handle, plan_[i].sub);
          break;
      }
      plan_[i].d->fold_taken(r.pending);
      // Destroy the updates (their messages own heap) but keep the vector's
      // capacity — the worker writing results_[i] next round recycles it.
      r.pending.reset();
    }
    for (Dyconit* d : index_.sorted()) d->prune_nonempty();
    index_.prune();
  }
  gc();
}

void DyconitSystem::flush_all(FlushSink& sink) {
  const SimTime now = clock_.now();
  for (Dyconit* d : index_.sorted()) d->flush_all(now, sink, stats_);
  index_.prune();
}

void DyconitSystem::flush_subscriber(SubscriberId sub, FlushSink& sink) {
  // Dyconits outside the index hold no updates: nothing is owed there.
  const SimTime now = clock_.now();
  for (Dyconit* d : index_.sorted()) d->flush_subscriber(sub, now, sink, stats_);
}

void DyconitSystem::resync_subscriber(SubscriberId sub, FlushSink& sink) {
  TRACE_SCOPE("dyconit.resync");
  const SimTime now = clock_.now();
  std::vector<Dyconit*> subscribed;
  for (auto& [id, d] : dyconits_) {
    if (d->subscribed(sub)) subscribed.push_back(d.get());
  }
  std::sort(subscribed.begin(), subscribed.end(),
            [](const Dyconit* a, const Dyconit* b) { return a->id() < b->id(); });
  for (Dyconit* d : subscribed) {
    d->flush_subscriber(sub, now, sink, stats_);
    sink.request_snapshot(sub, d->id());
    ++stats_.snapshots_requested;
  }
  ++stats_.resyncs;
}

void DyconitSystem::for_each(const std::function<void(Dyconit&)>& fn) {
  for (auto& [id, d] : dyconits_) fn(*d);
}

}  // namespace dyconits::dyconit
