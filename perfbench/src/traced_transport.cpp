#include "traced_transport.h"

#include <cstdio>
#include <cstring>
#include <iterator>

namespace perfbench {

void SpanLog::begin_tick(std::uint64_t tick) {
  tick_ = tick;
  folded_.clear();
}

std::int32_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.tick = tick_;
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.busy_ns = s.end_ns - s.start_ns;
  s.calls = 1;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::fold(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  for (const std::int32_t id : folded_) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (s.name == name && s.parent == parent) {
      s.end_ns = end_ns;
      s.busy_ns += end_ns - start_ns;
      ++s.calls;
      return;
    }
  }
  spans_.push_back(Span{name, tick_, start_ns, end_ns, end_ns - start_ns, 1, parent});
  folded_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
}

double SpanLog::busy_ms(const char* name, const char* parent) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    if (parent != nullptr &&
        (s.parent < 0 ||
         std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name, parent) != 0)) {
      continue;
    }
    ns += s.busy_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "tick,name,parent,start_ns,end_ns,busy_ns,calls\n");
  for (const Span& s : spans_) {
    const char* parent =
        s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
    std::fprintf(f, "%llu,%s,%s,%lld,%lld,%lld,%u\n",
                 static_cast<unsigned long long>(s.tick), s.name, parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.busy_ns), s.calls);
  }
  return std::fclose(f) == 0;
}

void SpanLog::clear() {
  spans_.clear();
  stack_.clear();
  folded_.clear();
}

void LatencyProbe::sent(std::uint32_t seq, std::int64_t t_ns) {
  in_flight_.emplace_back(seq, t_ns);
}

void LatencyProbe::polled(std::uint32_t seq, std::int64_t t_ns) {
  // Per-peer sequence numbers rise in send order; anything older than the
  // delivered frame that is still in flight was lost or not an update.
  while (!in_flight_.empty() && in_flight_.front().first < seq) in_flight_.pop_front();
  if (in_flight_.empty() || in_flight_.front().first != seq) return;
  samples_ms_.push_back(static_cast<double>(t_ns - in_flight_.front().second) / 1e6);
  in_flight_.pop_front();
}

void TracedTransport::probe_sends_to(const std::string& peer, LatencyProbe* probe) {
  probe_by_name_[peer] = probe;
  probe_by_id_.clear();
}

LatencyProbe* TracedTransport::probe_for(EndpointId to) {
  const auto it = probe_by_id_.find(to);
  if (it != probe_by_id_.end()) return it->second;
  const auto named = probe_by_name_.find(inner_.endpoint_name(to));
  LatencyProbe* probe = named != probe_by_name_.end() ? named->second : nullptr;
  probe_by_id_.emplace(to, probe);
  return probe;
}

bool TracedTransport::send(EndpointId from, EndpointId to, dyconits::net::Frame frame) {
  const std::uint8_t tag = frame.tag;
  const std::size_t size = frame.wire_size();
  const std::uint32_t seq = frame.seq;
  const bool update = frame.trace_origin != dyconits::SimTime::zero();
  if (digest_on_) digests_[{from, to}].mix(frame);
  const bool probed = update && probes_armed_ && !probe_by_name_.empty();
  const std::int64_t t0 = log_ != nullptr || probed ? now_ns() : 0;
  const bool ok = inner_.send(from, to, std::move(frame));
  if (log_ != nullptr) log_->fold("net.send", t0, now_ns());
  ++counters_.offered;
  if (!ok) {
    ++counters_.refused;
    return false;
  }
  if (from == server_) {
    ++counters_.server_frames;
    counters_.server_bytes += size;
    if (tag < counters_.server_bytes_by_tag.size()) counters_.server_bytes_by_tag[tag] += size;
  }
  if (probed) {
    if (LatencyProbe* probe = probe_for(to)) probe->sent(seq, t0);
  }
  return true;
}

std::vector<std::string> TracedTransport::stream_digests() const {
  std::vector<std::string> out;
  char buf[48];
  for (const auto& [pair, h] : digests_) {
    std::snprintf(buf, sizeof(buf), " %016llx/%llu",
                  static_cast<unsigned long long>(h.value()),
                  static_cast<unsigned long long>(h.frames()));
    out.push_back(inner_.endpoint_name(pair.first) + ">" + inner_.endpoint_name(pair.second) +
                  buf);
  }
  return out;
}

std::vector<dyconits::net::Delivery> TracedTransport::take(EndpointId to) {
  auto out = inner_.poll(to);
  if (poll_probe_ != nullptr && !out.empty()) {
    const std::int64_t t = now_ns();
    for (const auto& d : out) poll_probe_->polled(d.frame.seq, t);
  }
  return out;
}

void TracedTransport::prefetch(EndpointId to) {
  auto got = take(to);
  auto& held = prefetched_[to];
  held.insert(held.end(), std::make_move_iterator(got.begin()),
              std::make_move_iterator(got.end()));
}

std::vector<dyconits::net::Delivery> TracedTransport::poll(EndpointId to) {
  const std::int64_t t0 = log_ != nullptr ? now_ns() : 0;
  auto out = take(to);
  const auto held = prefetched_.find(to);
  if (held != prefetched_.end() && !held->second.empty()) {
    held->second.insert(held->second.end(), std::make_move_iterator(out.begin()),
                        std::make_move_iterator(out.end()));
    out.swap(held->second);
    held->second.clear();
  }
  if (log_ != nullptr) log_->fold("net.poll", t0, now_ns());
  return out;
}

void TracedTransport::flush_egress() {
  if (log_ == nullptr) {
    inner_.flush_egress();
    return;
  }
  const std::int64_t t0 = now_ns();
  inner_.flush_egress();
  log_->fold("net.flush_egress", t0, now_ns());
}

}  // namespace perfbench
