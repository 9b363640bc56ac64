// The benchmark's own instrumentation: an in-memory span log, and a
// pass-through decorator on the net::Transport seam (the seam
// net::FaultInjectingTransport decorates) that counts and, when a span log
// is attached, times every call the server and the bots make into the
// transport. It never changes a frame, so the wire stays byte-identical.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans kept in memory and written out once, at the end of a run. Every span
/// carries the tick number as its identifier and the index of the span that
/// enclosed it. Calls too frequent to keep one by one (per-frame send and
/// poll) fold into one span per (tick, name, parent): first start, last end,
/// summed busy time and the call count.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal, never owned
    std::uint64_t tick = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;  ///< end - start, or the folded calls' sum
    std::uint32_t calls = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root span
  };

  void begin_tick(std::uint64_t tick);
  std::int32_t open(const char* name);
  void close(std::int32_t id);
  /// Folds one short call into the current tick's span of that name under
  /// the innermost open span.
  void fold(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Total busy time (ms) of spans named `name` whose parent is named
  /// `parent` (nullptr: any parent).
  double busy_ms(const char* name, const char* parent = nullptr) const;
  /// One line per span: tick,name,parent,start_ns,end_ns,busy_ns,calls.
  bool write_csv(const std::string& path) const;

  void clear();

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::int32_t> folded_;  ///< folded spans of the current tick
  std::uint64_t tick_ = 0;
};

/// Matches update frames the server sends to one client with the client's
/// poll of them, over a real transport where the frame's trace_origin does
/// not travel: wall-clock ms from Transport::send on the server to the
/// client's transport taking the frame from the socket layer. Frames are
/// keyed by their transport seq.
class LatencyProbe {
 public:
  void sent(std::uint32_t seq, std::int64_t t_ns);
  void polled(std::uint32_t seq, std::int64_t t_ns);
  std::vector<double>& samples_ms() { return samples_ms_; }

 private:
  std::deque<std::pair<std::uint32_t, std::int64_t>> in_flight_;
  std::vector<double> samples_ms_;
};

class TracedTransport final : public dyconits::net::Transport {
 public:
  using EndpointId = dyconits::net::EndpointId;

  explicit TracedTransport(dyconits::net::Transport& inner) : inner_(inner) {}

  /// Attaches (or with nullptr detaches) the span log that times calls.
  void set_span_log(SpanLog* log) { log_ = log; }
  /// Frames sent from `server` are counted as server egress.
  void watch_server(EndpointId server) { server_ = server; }
  /// Server side of a real-socket latency probe: while armed, update frames
  /// sent to the peer named `peer` are stamped into `probe`.
  void probe_sends_to(const std::string& peer, LatencyProbe* probe);
  /// Arms or disarms the stamps of probe_sends_to; a disarmed send reads no
  /// clock.
  void arm_probes(bool on) { probes_armed_ = on; }
  /// Client side: every frame this transport takes from the inner one is
  /// matched in `probe`.
  void probe_polls(LatencyProbe* probe) { poll_probe_ = probe; }
  /// Takes the frames the inner transport holds for `to` now, so the poll
  /// probe stamps their receipt at this instant; the next poll(to) hands
  /// them out first, in order.
  void prefetch(EndpointId to);
  /// While on, digests the tag and payload of every frame offered, per
  /// (sender, receiver) pair: each session's stream in both directions.
  void set_digest(bool on) { digest_on_ = on; }
  /// One "sender>receiver hash/frames" line per pair, in endpoint order.
  std::vector<std::string> stream_digests() const;

  struct Counters {
    std::uint64_t offered = 0;  ///< send() calls
    std::uint64_t refused = 0;  ///< send() calls that returned false
    std::uint64_t server_frames = 0;
    std::uint64_t server_bytes = 0;
    std::array<std::uint64_t, dyconits::net::kMaxTags> server_bytes_by_tag{};
  };
  const Counters& counters() const { return counters_; }

  EndpointId create_endpoint(std::string name) override {
    return inner_.create_endpoint(std::move(name));
  }
  const std::string& endpoint_name(EndpointId id) const override {
    return inner_.endpoint_name(id);
  }
  bool send(EndpointId from, EndpointId to, dyconits::net::Frame frame) override;
  std::vector<dyconits::net::Delivery> poll(EndpointId to) override;
  void disconnect(EndpointId a, EndpointId b) override { inner_.disconnect(a, b); }
  bool connected(EndpointId a, EndpointId b) const override {
    return inner_.connected(a, b);
  }
  std::uint64_t egress_bytes(EndpointId id) const override { return inner_.egress_bytes(id); }
  std::uint64_t ingress_bytes(EndpointId id) const override {
    return inner_.ingress_bytes(id);
  }
  std::uint64_t egress_frames(EndpointId id) const override {
    return inner_.egress_frames(id);
  }
  std::uint64_t ingress_frames(EndpointId id) const override {
    return inner_.ingress_frames(id);
  }
  bool has_backlog_signal() const override { return inner_.has_backlog_signal(); }
  std::uint64_t pending_bytes(EndpointId to) const override {
    return inner_.pending_bytes(to);
  }
  const dyconits::net::FaultStats* fault_stats_if_any(EndpointId id) const override {
    return inner_.fault_stats_if_any(id);
  }
  void flush_egress() override;
  bool has_send_pressure() const override { return inner_.has_send_pressure(); }
  dyconits::net::SendPressure send_pressure(EndpointId to) const override {
    return inner_.send_pressure(to);
  }

 private:
  LatencyProbe* probe_for(EndpointId to);
  /// inner_.poll(to), with the poll probe stamped.
  std::vector<dyconits::net::Delivery> take(EndpointId to);

  dyconits::net::Transport& inner_;
  SpanLog* log_ = nullptr;
  EndpointId server_ = dyconits::net::kInvalidEndpoint;
  Counters counters_;
  std::unordered_map<std::string, LatencyProbe*> probe_by_name_;
  std::unordered_map<EndpointId, LatencyProbe*> probe_by_id_;
  bool probes_armed_ = false;
  LatencyProbe* poll_probe_ = nullptr;
  std::map<EndpointId, std::vector<dyconits::net::Delivery>> prefetched_;
  bool digest_on_ = false;
  std::map<std::pair<EndpointId, EndpointId>, dyconits::net::WireHasher> digests_;
};

}  // namespace perfbench
