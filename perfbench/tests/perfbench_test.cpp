// Tests for the benchmark's own pieces: the percentile rule, the failed-
// operation ledger, the span log, and the transport decorator, which must be
// a pure pass-through that leaves the wire byte-identical.
#include <gtest/gtest.h>

#include <numeric>

#include "dyconit/policies/factory.h"
#include "harness.h"
#include "report.h"
#include "traced_transport.h"
#include "util/stats.h"
#include "world/terrain.h"

using namespace perfbench;
using namespace dyconits;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT_TRUE(p99.reportable);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);

  const Percentile short_p99 = percentile(one_to(900), 0.99);
  EXPECT_FALSE(short_p99.reportable);
  EXPECT_EQ(short_p99.beyond, 9u);
  EXPECT_EQ(short_p99.samples, 900u);
}

TEST(Percentile, MedianIsSamplesRankAndOrderFree) {
  std::vector<double> xs = one_to(101);
  std::reverse(xs.begin(), xs.end());
  const Percentile p50 = percentile(xs, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 51.0);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.reportable);
  dyconits::Samples same;
  for (const double x : xs) same.add(x);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.9).value, same.percentile(0.9));
  EXPECT_FALSE(percentile(one_to(19), 0.5).reportable);  // 9 beyond
  EXPECT_TRUE(percentile(one_to(21), 0.5).reportable);   // 10 beyond
}

TEST(Percentile, TiesAtTheValueAreNotBeyondIt) {
  std::vector<double> xs(30, 1.0);
  xs.push_back(2.0);
  const Percentile p50 = percentile(xs, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 1.0);
  EXPECT_EQ(p50.beyond, 1u);
  EXPECT_FALSE(p50.reportable);
}

TEST(SpellFilter, MedianOfTheFastBlocksAndSpikesRelativeToTheirBlock) {
  // 100 blocks: a fifth run near 1 ms, the rest in a slow spell near 3 ms.
  // Every block has one spike of twice its median.
  const auto block_at = [](int b) {
    const double ms = (b < 20 ? 1.0 : 3.0) + 0.001 * b;
    std::vector<double> block(kBlockTicks, ms);
    block[5] = 2.0 * ms;
    return block;
  };
  SpellFilter f;
  for (int b = 0; b < 100; ++b) f.add_block(block_at(b));
  f.add_block({});  // skipped
  const Percentile p50 = f.p50();
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_DOUBLE_EQ(p50.value, 1.002);  // the 3rd fastest block
  EXPECT_EQ(p50.beyond, 97u);
  EXPECT_TRUE(p50.reportable);
  // One sample in a block is a spike: the 99th percentile is a spike, at
  // the fast blocks' speed.
  const Percentile p99 = f.p99();
  EXPECT_EQ(p99.samples, 100u * kBlockTicks);
  EXPECT_DOUBLE_EQ(p99.value, 2.0 * 1.002);

  SpellFilter even, odd;
  for (int b = 0; b < 100; ++b) (b % 2 == 0 ? even : odd).add_block(block_at(b));
  even.merge(odd);
  EXPECT_DOUBLE_EQ(even.p50().value, p50.value);
  EXPECT_DOUBLE_EQ(even.p99().value, p99.value);
}

TEST(Percentile, EmptyIsNeverReported) {
  const Percentile p = percentile({}, 0.5);
  EXPECT_FALSE(p.reportable);
  EXPECT_EQ(p.samples, 0u);
}

TEST(Histogram, SameRuleAtAThousandthOfTheUnit) {
  Histogram h;
  std::vector<double> xs;
  for (int i = 1000; i >= 1; --i) {
    h.add(i * 0.5 + 0.0004);  // rounds to the microsecond
    xs.push_back(i * 0.5);
  }
  EXPECT_EQ(h.count(), 1000u);
  for (const double q : {0.5, 0.9, 0.99}) {
    const Percentile a = h.percentile(q);
    const Percentile b = percentile(xs, q);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_EQ(a.beyond, b.beyond);
    EXPECT_EQ(a.reportable, b.reportable);
  }
  EXPECT_FALSE(h.percentile(0.995).reportable);  // 5 beyond
  EXPECT_FALSE(Histogram{}.percentile(0.5).reportable);

  Histogram low, high;
  for (int i = 1; i <= 1000; ++i) (i <= 400 ? low : high).add(i * 0.5);
  low.merge(high);
  EXPECT_EQ(low.count(), 1000u);
  EXPECT_DOUBLE_EQ(low.percentile(0.99).value, h.percentile(0.99).value);
}

TEST(OpsLedger, FailuresOverFramesOfferedPlusJoins) {
  OpsLedger o;
  EXPECT_EQ(o.failed_frac(), 0.0);  // nothing attempted
  o.frames_offered = 990;
  o.joins_attempted = 10;
  o.frames_dropped = 3;
  o.frames_refused = 2;
  o.decode_failures = 1;
  o.malformed_frames = 1;
  o.join_refusals = 3;
  EXPECT_EQ(o.attempted(), 1000u);
  EXPECT_EQ(o.failed(), 10u);
  EXPECT_DOUBLE_EQ(o.failed_frac(), 0.01);

  OpsLedger sum;
  sum += o;
  sum += o;
  EXPECT_EQ(sum.attempted(), 2000u);
  EXPECT_EQ(sum.failed(), 20u);
  EXPECT_DOUBLE_EQ(sum.failed_frac(), 0.01);
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  OpsLedger o;
  o.frames_offered = 5;
  o.frames_dropped = 1;
  const std::string j = result_json(true, o, {{"tick_p50_ms", 1.25, "ms"}});
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": "
            "{\"tick_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
}

TEST(SpanLog, FoldsRepeatedCallsPerTickAndParent) {
  SpanLog log;
  log.begin_tick(1);
  const auto server = log.open("server.tick");
  log.fold("net.send", 100, 110);
  log.fold("net.send", 200, 230);
  log.close(server);
  const auto bots = log.open("bots.tick");
  log.fold("net.send", 300, 305);
  log.close(bots);
  log.begin_tick(2);
  log.fold("net.send", 400, 401);

  // server.tick, its folded sends, bots.tick, its sends, tick 2's root send.
  ASSERT_EQ(log.spans().size(), 5u);
  const auto& folded = log.spans()[1];
  EXPECT_EQ(folded.calls, 2u);
  EXPECT_EQ(folded.busy_ns, 40);
  EXPECT_EQ(folded.start_ns, 100);
  EXPECT_EQ(folded.end_ns, 230);
  EXPECT_EQ(folded.parent, server);
  EXPECT_DOUBLE_EQ(log.busy_ms("net.send", "server.tick"), 40e-6);
  EXPECT_DOUBLE_EQ(log.busy_ms("net.send"), 46e-6);
  EXPECT_EQ(log.spans()[4].tick, 2u);
  EXPECT_EQ(log.spans()[4].parent, -1);
}

TEST(LatencyProbe, MatchesPolledFramesBySeq) {
  LatencyProbe probe;
  probe.sent(1, 1'000'000);
  probe.sent(3, 2'000'000);
  probe.sent(4, 2'500'000);
  probe.polled(2, 4'000'000);  // not an update frame: ignored
  probe.polled(4, 5'000'000);  // 3 never arrived
  ASSERT_EQ(probe.samples_ms().size(), 1u);
  EXPECT_DOUBLE_EQ(probe.samples_ms()[0], 2.5);
}

TEST(TracedTransport, PrefetchedFramesComeFirstAndInOrder) {
  SimClock clock;
  net::SimNetwork sim(clock, 1);
  TracedTransport traced(sim);
  LatencyProbe probe;
  traced.probe_polls(&probe);
  const net::EndpointId a = traced.create_endpoint("a");
  const net::EndpointId b = traced.create_endpoint("b");
  sim.connect(a, b, {SimDuration::millis(1), 0.0, true});
  const auto send = [&](std::uint32_t seq) {
    net::Frame f;
    f.seq = seq;
    f.payload = {static_cast<std::uint8_t>(seq)};
    ASSERT_TRUE(traced.send(a, b, std::move(f)));
  };
  send(1);
  send(2);
  clock.advance(SimDuration::millis(5));
  traced.prefetch(b);
  send(3);
  clock.advance(SimDuration::millis(5));
  const auto got = traced.poll(b);
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(got[i].frame.seq, i + 1);
  EXPECT_TRUE(traced.poll(b).empty());
}

/// A small server + bot fleet over SimNetwork, optionally behind the
/// decorator with spans on; returns the wire hash after `ticks` ticks.
std::uint64_t small_run_wire_hash(bool decorated, SpanLog* log) {
  SimClock clock;
  world::World world(std::make_unique<world::TerrainGenerator>(7));
  net::SimNetwork sim(clock, 5);
  TracedTransport traced(sim);
  traced.set_span_log(log);
  net::Transport& wire = decorated ? static_cast<net::Transport&>(traced) : sim;

  server::ServerConfig cfg;
  cfg.view_distance = 4;
  cfg.deterministic_load = true;
  server::GameServer server(clock, wire, world, dyconit::make_policy("director"), cfg);
  traced.watch_server(server.endpoint());
  bots::WorkloadConfig wc;
  wc.kind = bots::WorkloadKind::Village;
  std::vector<std::unique_ptr<bots::BotClient>> fleet;
  std::uint64_t bot_seed = 11;
  for (const auto& plan : bots::plan_bots(wc, 12, 3)) {
    fleet.push_back(std::make_unique<bots::BotClient>(clock, wire, world, server.endpoint(),
                                                      plan.name, bot_seed++, plan.config));
    sim.connect(fleet.back()->endpoint(), server.endpoint(),
                {SimDuration::millis(25), 0.1, true});
  }
  for (int tick = 0; tick < 120; ++tick) {
    if (log != nullptr) log->begin_tick(static_cast<std::uint64_t>(tick));
    clock.advance(SimDuration::millis(50));
    if (tick < 3) {
      for (std::size_t i = 4 * static_cast<std::size_t>(tick);
           i < 4 * static_cast<std::size_t>(tick) + 4; ++i) {
        fleet[i]->connect();
      }
    }
    for (auto& b : fleet) b->tick();
    server.tick();
    wire.flush_egress();
  }
  if (decorated) {
    EXPECT_GT(traced.counters().offered, 0u);
    EXPECT_EQ(traced.counters().server_bytes, sim.egress_bytes(server.endpoint()));
  }
  return sim.wire_hash();
}

TEST(TracedTransport, PassThroughLeavesWireHashUnchanged) {
  SpanLog log;
  const std::uint64_t bare = small_run_wire_hash(false, nullptr);
  EXPECT_EQ(small_run_wire_hash(true, nullptr), bare);
  EXPECT_EQ(small_run_wire_hash(true, &log), bare);
  EXPECT_GT(log.busy_ms("net.send"), 0.0);
  EXPECT_GT(log.busy_ms("net.poll"), 0.0);
}

TEST(Stack, TracedAndUntracedInstancesShareTheWire) {
  WorkloadSpec w = *find_workload("village-director");
  w.players = 16;
  Stack plain(w, 9);
  plain.run_ticks(120);
  SpanLog log;
  Stack traced(w, 9, &log);
  traced.set_stream_digests(true);
  traced.run_ticks(120);
  EXPECT_EQ(plain.wire_hash(), traced.wire_hash());
  EXPECT_EQ(plain.queued_updates(), plain.server().dyconits().total_queued());
  EXPECT_TRUE(plain.check().empty());
  EXPECT_EQ(traced.session_hashes().size(), 32u);  // both directions
  EXPECT_GT(log.busy_ms("server.tick"), 0.0);
  EXPECT_GT(log.busy_ms("net.send", "server.tick"), 0.0);
  EXPECT_EQ(plain.ops().failed(), 0u);
  EXPECT_EQ(plain.ops().joins_attempted, 16u);
}

}  // namespace
