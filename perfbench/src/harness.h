// One instance of the system under test, built from a workload and a seed,
// and driven through each layer's public functions under the benchmark's
// load model: each tick every bot acts, then the server steps, then
// simulated time advances a fixed 50 ms whatever the wall time was. The load
// per tick is therefore fixed; a slow server never receives less of it.
// Everything runs on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bots/bot.h"
#include "bots/workload.h"
#include "net/sim_network.h"
#include "net/udp_transport.h"
#include "report.h"
#include "server/game_server.h"
#include "traced_transport.h"
#include "world/world.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool udp = false;  ///< real loopback sockets instead of SimNetwork
  std::string policy;  ///< dyconit policy spec, or "vanilla"
  dyconits::bots::WorkloadKind kind = dyconits::bots::WorkloadKind::Walk;
  std::size_t players = 0;
  std::size_t mobs = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Ticks from construction to the end of set-up: the join ramp and the
/// initial chunk streaming finish inside it.
inline constexpr std::uint64_t kWarmupTicks = 100;

/// Per-layer counters at one instant; a measurement window is the
/// difference of two snapshots.
struct Counters {
  std::uint64_t tick = 0;
  TracedTransport::Counters server_net;
  std::uint64_t egress_bytes = 0;  ///< the server's, from the inner transport
  std::uint64_t egress_frames = 0;
  dyconits::dyconit::Stats dyconit;
  std::uint64_t datagrams = 0;
  std::uint64_t updates_applied = 0;
};

class Stack {
 public:
  /// With `spans`, every layer call is timed into it and the server's tick
  /// profiler (ServerConfig::profile_ticks) is on.
  Stack(const WorkloadSpec& w, std::uint64_t seed, SpanLog* spans = nullptr);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Empty unless construction failed (a socket could not be opened).
  const std::string& error() const { return error_; }
  /// Whether layer calls are timed into a span log.
  bool traced() const { return spans_ != nullptr; }

  /// One tick; returns the wall ns of its server step (UdpTransport::pump,
  /// GameServer::tick, Transport::flush_egress).
  std::int64_t tick();
  void run_ticks(std::uint64_t n);

  Counters counters() const;
  /// Appends the client-observed update latency samples (ms) gathered since
  /// the last call to `into` (nullptr: discards them). Simulated ms from
  /// the update's origin to the client's apply on the sim backend.
  /// Over real sockets, where the frame's origin is not sent, wall-clock ms
  /// from the server's send to the client's receipt, only while
  /// arm_latency_probe(true).
  void drain_latency(std::vector<double>* into);
  /// Arms the real-socket latency probe. Armed, every update frame the
  /// server sends reads the clock.
  void arm_latency_probe(bool on) { server_net_->arm_probes(on); }
  /// Mean distance (blocks) between the bots' replicas and the server's
  /// entities, over every (bot, replica entity) pair; {sum, pairs}.
  std::pair<double, std::size_t> pos_error() const;
  /// Modeled network-stack cost (ms) of `frames` / `bytes` under the
  /// server's net_cost_per_frame and net_cost_per_byte_ns. Never measured.
  double modeled_ms(std::uint64_t frames, std::uint64_t bytes) const;

  /// Updates waiting in dyconit queues, from the middleware's own ledger
  /// (enqueued less coalesced, delivered, shed and dropped): the sum
  /// DyconitSystem::total_queued() walks every subscription for.
  std::uint64_t queued_updates() const;

  OpsLedger ops() const;
  /// Every reason this instance's output is wrong, empty when correct.
  std::vector<std::string> check() const;

  /// SimNetwork::wire_hash (0 on real sockets).
  std::uint64_t wire_hash() const;
  /// Digest every session's stream, both directions, while on.
  void set_stream_digests(bool on) { server_net_->set_digest(on); }
  /// Per-session stream digests taken while set_stream_digests was on.
  std::vector<std::string> session_hashes() const { return server_net_->stream_digests(); }

  dyconits::server::GameServer& server() { return *server_; }
  const dyconits::server::GameServer& server() const { return *server_; }
  dyconits::world::World& world() { return *world_; }

  std::uint64_t bot_gaps() const;
  std::uint64_t bot_resyncs_requested() const;

 private:
  struct Lane {  ///< one real-socket client
    std::unique_ptr<dyconits::net::UdpTransport> udp;
    std::unique_ptr<TracedTransport> traced;
    LatencyProbe probe;
  };

  /// Runs fn inside a span of the attached log, or bare when there is none.
  template <class F>
  void timed(const char* name, F&& fn);

  WorkloadSpec spec_;
  SpanLog* spans_ = nullptr;
  std::string error_;
  dyconits::SimClock clock_;
  std::unique_ptr<dyconits::world::World> world_;
  std::unique_ptr<dyconits::net::SimNetwork> sim_;
  std::unique_ptr<dyconits::net::UdpTransport> server_udp_;
  std::unique_ptr<TracedTransport> server_net_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::unique_ptr<dyconits::server::GameServer> server_;
  std::vector<std::unique_ptr<dyconits::bots::BotClient>> bots_;
  std::size_t next_join_ = 0;
  std::uint64_t joins_attempted_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace perfbench
