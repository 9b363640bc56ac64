#include "harness.h"

#include "dyconit/policies/factory.h"
#include "util/rng.h"
#include "world/terrain.h"

namespace perfbench {

using namespace dyconits;

// Why each workload is here, and what it should and should not move: see
// README.md. Counts are sized so 1000 ticks take a few seconds.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // name, udp, policy, player plan, players, mobs
      {"village-director", false, "director", bots::WorkloadKind::Village, 150, 0},
      {"walk-vanilla", false, "vanilla", bots::WorkloadKind::Walk, 100, 0},
      {"udp-loopback", true, "zero", bots::WorkloadKind::Walk, 3, 4000},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

// Sim links as the paper's experiments model them: 25 ms, 10% jitter, FIFO.
const net::LinkParams kLink{SimDuration::millis(25), 0.1, true};
const SimDuration kTick = SimDuration::millis(50);
constexpr std::size_t kJoinsPerTick = 4;
// Server uplink of the sim backend, applied when set-up ends so the join
// burst does not queue behind it. Frames then leave in turn, so a tick's
// burst of egress shows up as update latency.
constexpr std::uint64_t kUplinkBytesPerSecond = 100'000'000 / 8;  // 100 Mbit/s
// One scenario for every seed: a fixed map, as a server's world file would
// be, and a fixed plan of who plays where (the hotspot crowds, the builders).
// The seed drives what the players and mobs do and the link jitter.
constexpr std::uint64_t kTerrainSeed = 1234;
constexpr std::uint64_t kScenarioSeed = 42;

}  // namespace

template <class F>
void Stack::timed(const char* name, F&& fn) {
  if (spans_ == nullptr) {
    fn();
    return;
  }
  const std::int32_t id = spans_->open(name);
  fn();
  spans_->close(id);
}

Stack::Stack(const WorkloadSpec& w, std::uint64_t seed, SpanLog* spans)
    : spec_(w), spans_(spans) {
  Rng seeds(seed ^ 0xBE7C4ull);
  world_ = std::make_unique<world::World>(
      std::make_unique<world::TerrainGenerator>(kTerrainSeed));

  server::ServerConfig scfg;
  scfg.use_dyconits = spec_.policy != "vanilla";
  scfg.deterministic_load = true;
  scfg.profile_ticks = spans_ != nullptr;
  scfg.mob_count = spec_.mobs;
  scfg.mob_seed = seeds.next_u64();
  std::unique_ptr<dyconit::Policy> policy;
  if (scfg.use_dyconits) policy = dyconit::make_policy(spec_.policy);

  std::vector<bots::BotPlan> plans;
  if (spec_.udp) {
    // A join sent at exactly t=0 reads as "never sent" to the bot's retry
    // timer; start one tick in.
    clock_.advance(kTick);
    net::UdpConfig ucfg;
    ucfg.idle_timeout = SimDuration(0);  // the loop is fast-ticked, not wall-paced
    server_udp_ = std::make_unique<net::UdpTransport>(clock_, ucfg);
    if (!server_udp_->valid()) {
      error_ = "server socket: " + server_udp_->error();
      return;
    }
    server_net_ = std::make_unique<TracedTransport>(*server_udp_);
    plans = bots::plan_bots(bots::WorkloadConfig{}, spec_.players, kScenarioSeed);
    for (std::size_t i = 0; i < spec_.players; ++i) {
      auto lane = std::make_unique<Lane>();
      lane->udp = std::make_unique<net::UdpTransport>(clock_, ucfg);
      if (!lane->udp->valid()) {
        error_ = "client socket: " + lane->udp->error();
        return;
      }
      lane->traced = std::make_unique<TracedTransport>(*lane->udp);
      lane->traced->probe_polls(&lane->probe);
      server_net_->probe_sends_to("udp:127.0.0.1:" + std::to_string(lane->udp->local_port()),
                                  &lane->probe);
      lanes_.push_back(std::move(lane));
    }
  } else {
    sim_ = std::make_unique<net::SimNetwork>(clock_, seeds.next_u64());
    server_net_ = std::make_unique<TracedTransport>(*sim_);
    bots::WorkloadConfig wc;
    wc.kind = spec_.kind;
    plans = bots::plan_bots(wc, spec_.players, kScenarioSeed);
    auto homes = std::make_shared<std::unordered_map<std::string, world::Vec3>>();
    for (const auto& p : plans) (*homes)[p.name] = p.home;
    scfg.spawn_provider = [homes, world = world_.get()](const std::string& name) {
      const auto it = homes->find(name);
      const world::Vec3 home = it != homes->end() ? it->second : world::Vec3{};
      return world->spawn_position(static_cast<std::int32_t>(home.x),
                                   static_cast<std::int32_t>(home.z));
    };
  }

  server_ = std::make_unique<server::GameServer>(clock_, *server_net_, *world_,
                                                 std::move(policy), scfg);
  server_net_->watch_server(server_->endpoint());
  server_net_->set_span_log(spans_);

  for (std::size_t i = 0; i < plans.size(); ++i) {
    bots::BotConfig bc = plans[i].config;
    if (spec_.udp) {
      Lane& lane = *lanes_[i];
      lane.traced->set_span_log(spans_);
      const net::EndpointId server_ep =
          lane.udp->add_peer("127.0.0.1", server_udp_->local_port(), "server");
      bots_.push_back(std::make_unique<bots::BotClient>(
          clock_, *lane.traced, *world_, server_ep, plans[i].name, seeds.next_u64(), bc));
    } else {
      bots_.push_back(std::make_unique<bots::BotClient>(clock_, *server_net_, *world_,
                                                        server_->endpoint(), plans[i].name,
                                                        seeds.next_u64(), bc));
      sim_->connect(bots_.back()->endpoint(), server_->endpoint(), kLink);
    }
  }
}

Stack::~Stack() = default;

std::int64_t Stack::tick() {
  if (sim_ && ticks_ == kWarmupTicks) {
    sim_->set_egress_rate(server_->endpoint(), kUplinkBytesPerSecond);
  }
  ++ticks_;
  if (spans_ != nullptr) spans_->begin_tick(ticks_);
  // Join ramp: a fixed number of new sessions per tick.
  for (std::size_t n = 0; n < kJoinsPerTick && next_join_ < bots_.size(); ++n) {
    bots_[next_join_++]->connect();
    ++joins_attempted_;
  }

  timed("bots.tick", [&] {
    for (std::size_t i = 0; i < bots_.size(); ++i) {
      if (spec_.udp) timed("net.pump", [&] { lanes_[i]->udp->pump(0); });
      bots_[i]->tick();
      if (spec_.udp) lanes_[i]->traced->flush_egress();
    }
  });
  const std::int64_t start = now_ns();
  timed("server.step", [&] {
    if (spec_.udp) timed("net.pump", [&] { server_udp_->pump(0); });
    timed("server.tick", [&] { server_->tick(); });
    server_net_->flush_egress();
  });
  const std::int64_t step_ns = now_ns() - start;
  // The clients take the step's frames off their sockets now, so the probe
  // stamps receipt before any harness or bot work runs.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->udp->pump(0);
    lanes_[i]->traced->prefetch(bots_[i]->endpoint());
  }
  clock_.advance(kTick);
  return step_ns;
}

void Stack::run_ticks(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) tick();
}

Counters Stack::counters() const {
  Counters c;
  c.tick = ticks_;
  c.server_net = server_net_->counters();
  c.egress_bytes = server_net_->egress_bytes(server_->endpoint());
  c.egress_frames = server_net_->egress_frames(server_->endpoint());
  c.dyconit = server_->dyconit_stats();
  if (server_udp_) c.datagrams = server_udp_->stats().datagrams_sent;
  for (const auto& b : bots_) c.updates_applied += b->updates_applied();
  return c;
}

void Stack::drain_latency(std::vector<double>* into) {
  const auto add = [into](const std::vector<double>& samples) {
    if (into != nullptr) into->insert(into->end(), samples.begin(), samples.end());
  };
  for (auto& b : bots_) {
    add(b->update_latency_ms().values());
    b->update_latency_ms().clear();
  }
  for (auto& lane : lanes_) {
    add(lane->probe.samples_ms());
    lane->probe.samples_ms().clear();
  }
}

std::pair<double, std::size_t> Stack::pos_error() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& bot : bots_) {
    if (!bot->joined()) continue;
    for (const auto& [id, rep] : bot->replica_entities()) {
      const entity::Entity* truth = server_->entities().find(id);
      if (truth == nullptr) continue;
      sum += world::distance(rep.pos, truth->pos);
      ++n;
    }
  }
  return {sum, n};
}

double Stack::modeled_ms(std::uint64_t frames, std::uint64_t bytes) const {
  const server::ServerConfig& c = server_->config();
  return (static_cast<double>(frames) * static_cast<double>(c.net_cost_per_frame.count_micros()) *
              1000.0 +
          static_cast<double>(bytes) * c.net_cost_per_byte_ns) /
         1e6;
}

std::uint64_t Stack::queued_updates() const {
  const dyconit::Stats& s = server_->dyconit_stats();
  return s.enqueued - s.coalesced - s.delivered - s.dropped_unsubscribe - s.dropped_snapshot -
         s.shed_updates;
}

OpsLedger Stack::ops() const {
  OpsLedger o;
  o.joins_attempted = joins_attempted_;
  const auto add_net = [&](const TracedTransport& t) {
    o.frames_offered += t.counters().offered;
    o.frames_refused += t.counters().refused;
  };
  add_net(*server_net_);
  if (sim_) o.frames_dropped += sim_->total_dropped_frames();
  if (server_udp_) {
    o.frames_dropped += server_udp_->stats().send_failures;
    o.malformed_frames += server_udp_->stats().malformed_datagrams;
  }
  for (const auto& lane : lanes_) {
    add_net(*lane->traced);
    o.frames_dropped += lane->udp->stats().send_failures;
    o.malformed_frames += lane->udp->stats().malformed_datagrams;
  }
  o.malformed_frames += server_->malformed_frames();
  for (const auto& b : bots_) {
    o.decode_failures += b->decode_failures();
    o.join_refusals += b->join_refusals();
  }
  return o;
}

std::vector<std::string> Stack::check() const {
  std::vector<std::string> errors;
  std::size_t joined = 0;
  std::uint64_t applied = 0;
  for (const auto& b : bots_) {
    if (b->joined()) ++joined;
    applied += b->updates_applied();
  }
  if (joined != bots_.size()) {
    errors.push_back(std::to_string(bots_.size() - joined) + " of " +
                     std::to_string(bots_.size()) + " bots not joined");
  }
  const OpsLedger o = ops();
  if (o.decode_failures > 0) {
    errors.push_back(std::to_string(o.decode_failures) + " decode failures");
  }
  if (o.malformed_frames > 0) {
    errors.push_back(std::to_string(o.malformed_frames) + " malformed frames");
  }
  if (applied == 0) errors.push_back("no updates applied");
  return errors;
}

std::uint64_t Stack::wire_hash() const { return sim_ ? sim_->wire_hash() : 0; }

std::uint64_t Stack::bot_gaps() const {
  std::uint64_t n = 0;
  for (const auto& b : bots_) n += b->gaps_detected();
  return n;
}

std::uint64_t Stack::bot_resyncs_requested() const {
  std::uint64_t n = 0;
  for (const auto& b : bots_) n += b->resyncs_requested();
  return n;
}

}  // namespace perfbench
