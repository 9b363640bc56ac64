// perfbench: the repository benchmark. One process, one thread, one
// workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics, measured with no instrumentation
// beyond the harness's own clock around each step and, over real sockets,
// the latency probe's clock reads. --trace 1 prints the
// per-layer metrics: it measures the same ticks twice, untraced and then with
// the harness spans and the server's tick profiler on, and reports the
// difference as trace.overhead_frac. The last stdout line is one JSON object
// (see report.h). Exit 0 only when every correctness check passed; 2 on a
// usage error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "net/buffer_pool.h"
#include "protocol/messages.h"
#include "report.h"

using namespace perfbench;
using dyconits::net::BufferPool;
using dyconits::protocol::MessageType;

namespace {

/// Instances an untraced run measures, each on its own seed drawn from
/// --seed. What a tick costs depends on what the players happen to do, so a
/// run pools the ticks of more than one.
constexpr int kScenarios = 2;
/// Ticks every measured instance runs between set-up and its measured
/// ticks. Over the first 500 ticks after set-up the village crowds gather
/// and the server's frames per tick fall from about 1.6 times their later
/// level to within 10% of it.
constexpr std::uint64_t kSettleTicks = 500;
/// Ticks past set-up at which same-seed instances must agree on the wire.
constexpr std::uint64_t kReplayTicks = 40;
static_assert(kReplayTicks <= kSettleTicks);
/// Ticks per instance over which the behaviour metrics (egress, update
/// latency, positional error) are taken: a fixed span, so that they are a
/// function of seed and code alone. The step times are taken over every
/// measured tick; this is also the fewest measured ticks, and p99 then has
/// >= 10 samples beyond it.
constexpr std::uint64_t kBehaviourTicks = 1000;
/// Hard stop for one measurement, so that a run ends inside the 180 s it
/// may take.
constexpr double kMaxMeasureSeconds = 90.0;
/// Ticks between positional-error samples (a quarter simulated second), and
/// the block of the real-socket latency samples.
constexpr std::uint64_t kPosErrorEvery = 5;
/// Instances measured together take turns of this many ticks each. A turn
/// is short against the host's slow spells (seconds to minutes), so every
/// instance sees the same spells, and long against the cache misses of
/// switching from one instance to the next.
constexpr std::uint64_t kTurnTicks = 100;
static_assert(kTurnTicks % kBlockTicks == 0 && kTurnTicks % kPosErrorEvery == 0);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:",
               why);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage(("unexpected argument " + a).c_str());
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      usage(("missing value for --" + a).c_str());
    }
  }
  Args args;
  for (const auto& [k, v] : kv) {
    char* end = nullptr;
    if (k == "workload") {
      args.workload = v;
    } else if (k == "seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "trace") {
      args.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (k == "spans") {
      args.spans = v;
    } else {
      usage(("unknown flag --" + k).c_str());
    }
    if (end != nullptr && (*end != '\0' || v.empty())) usage(("bad number for --" + k).c_str());
  }
  if (find_workload(args.workload) == nullptr) usage("unknown or missing --workload");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// One measurement window on one instance.
struct Window {
  std::vector<double> step_ms;  ///< server step per tick
  Counters begin, end;
  Counters behaviour_end;  ///< after the first `behaviour_ticks` measured ticks
  /// The latency and positional-error samples are from these first ticks.
  std::uint64_t behaviour_ticks = 0;
  /// The process's peak resident memory when every instance had run its
  /// first `behaviour_ticks`: a longer measurement does not raise it.
  double peak_rss_mb = 0.0;
  Histogram latency;          ///< simulated ms, on the sim backend
  SpellFilter probe_latency;  ///< wall-clock ms, over real sockets with the probe armed
  std::vector<double> pos_error;  ///< per-sample mean over (bot, entity) pairs
  std::vector<double> queued;     ///< dyconit queue depth per tick (traced)
  /// The process-wide buffer pool's acquires over this instance's turns.
  std::uint64_t pool_hits = 0, pool_misses = 0;
  std::uint64_t ticks() const { return end.tick - begin.tick; }
};

/// The CPUs the process may run on, in order; empty if they cannot be read.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Lets the calling thread run only on `cpus`.
void run_on(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Chooses the CPU each round of turns runs on. On a shared host a vCPU's
/// speed depends on what the host runs beside it, and which vCPU is the
/// fast one changes every few seconds; left to the scheduler the thread
/// stays on one vCPU through its slow spells. A round stays on the vCPU of
/// the last one while that ran the steps at most kSlack slower than the
/// fastest turns seen so far, and moves to the next allowed vCPU otherwise.
/// A run thus spends most of its time on the vCPUs that are fast at the
/// moment, and when every vCPU is slow it visits each in turn.
class CpuPicker {
 public:
  static constexpr double kSlack = 1.15;

  CpuPicker(std::vector<int> cpus, std::size_t instances)
      : cpus_(std::move(cpus)), fastest_(instances, 0.0) {}
  /// Moves the calling thread onto the round's vCPU.
  void start_round() {
    if (!cpus_.empty()) run_on({cpus_[at_ % cpus_.size()]});
  }
  /// Records the median step of instance i's turn in this round.
  void turn(std::size_t i, double median_ms) {
    double& f = fastest_[i];
    if (f > 0.0) slowdown_ = std::max(slowdown_, median_ms / f);
    if (f == 0.0 || median_ms < f) f = median_ms;
  }
  void end_round() {
    if (slowdown_ > kSlack) ++at_;
    slowdown_ = 0.0;
  }
  /// Lets the thread run on every allowed vCPU again.
  void release() {
    if (!cpus_.empty()) run_on(cpus_);
  }

 private:
  std::vector<int> cpus_;
  std::vector<double> fastest_;  ///< per instance, the fastest turn's median step
  std::size_t at_ = 0;
  double slowdown_ = 0.0;
};

/// The median of xs[from..].
double median_from(const std::vector<double>& xs, std::size_t from) {
  std::vector<double> tail(xs.begin() + static_cast<std::ptrdiff_t>(from), xs.end());
  return percentile(tail, 0.5).value;
}

/// Measures `stacks` for `seconds` of wall time and at least `min_ticks`
/// ticks on each. The instances take turns of kTurnTicks, so they run
/// through the same spells of the host; a CpuPicker chooses the vCPU of
/// each round of turns. With `probe` the real-socket latency probe is
/// armed throughout; it reads the clock on every update frame the server
/// sends, which moved the udp-loopback step by less than the 2% that
/// same-seed instances differ by, armed or not. Returns one window per
/// instance, all of the same length; they end short of `min_ticks` only when
/// the measurement ran past kMaxMeasureSeconds.
std::vector<Window> measure(const std::vector<Stack*>& stacks, double seconds,
                            std::uint64_t min_ticks, bool probe = false) {
  std::vector<Window> ws(stacks.size());
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    Stack& s = *stacks[i];
    s.drain_latency(nullptr);
    s.server().profiler().reset();
    s.arm_latency_probe(probe);
    ws[i].begin = s.counters();
    ws[i].behaviour_ticks = min_ticks;
  }
  CpuPicker picker(allowed_cpus(), stacks.size());
  const std::int64_t t0 = now_ns();
  std::vector<double> drained;
  for (std::uint64_t done = 0;;) {
    const double elapsed = seconds_since(t0);
    if ((done >= min_ticks && elapsed >= seconds) || elapsed >= kMaxMeasureSeconds) break;
    picker.start_round();
    const std::uint64_t turn =
        done < min_ticks ? std::min(kTurnTicks, min_ticks - done) : kTurnTicks;
    for (std::size_t i = 0; i < stacks.size(); ++i) {
      Stack& s = *stacks[i];
      Window& w = ws[i];
      const auto pool0 = BufferPool::instance().stats();
      const std::size_t first = w.step_ms.size();
      for (std::uint64_t n = 1; n <= turn; ++n) {
        w.step_ms.push_back(static_cast<double>(s.tick()) / 1e6);
        const bool behaviour = done + n <= w.behaviour_ticks;
        if (n % kPosErrorEvery == 0) {
          drained.clear();
          s.drain_latency(&drained);
          if (probe) {
            w.probe_latency.add_block(drained);
          } else if (behaviour) {
            for (const double ms : drained) w.latency.add(ms);
          }
          if (behaviour) {
            const auto [sum, pairs] = s.pos_error();
            if (pairs > 0) w.pos_error.push_back(sum / static_cast<double>(pairs));
          }
        }
        if (done + n == w.behaviour_ticks) w.behaviour_end = s.counters();
        if (s.traced()) w.queued.push_back(static_cast<double>(s.queued_updates()));
      }
      const auto pool1 = BufferPool::instance().stats();
      w.pool_hits += pool1.hits - pool0.hits;
      w.pool_misses += pool1.misses - pool0.misses;
      picker.turn(i, median_from(w.step_ms, first));
    }
    picker.end_round();
    done += turn;
    if (done == min_ticks) {
      for (Window& w : ws) w.peak_rss_mb = peak_rss_mb();
    }
  }
  picker.release();
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    ws[i].end = stacks[i]->counters();
    stacks[i]->drain_latency(nullptr);
    stacks[i]->arm_latency_probe(false);
  }
  std::fprintf(stderr, "perfbench: measured %zu x %llu ticks in %.3f s\n", stacks.size(),
               static_cast<unsigned long long>(ws[0].ticks()), seconds_since(t0));
  return ws;
}

/// Step times in blocks of kBlockTicks consecutive ticks; a shorter tail is
/// dropped.
SpellFilter spells_of(const std::vector<double>& step_ms) {
  SpellFilter f;
  for (std::size_t b = 0; b + kBlockTicks <= step_ms.size(); b += kBlockTicks) {
    f.add_block({step_ms.begin() + static_cast<std::ptrdiff_t>(b),
                 step_ms.begin() + static_cast<std::ptrdiff_t>(b + kBlockTicks)});
  }
  return f;
}

/// The seed of the run's i-th instance; the 0th is --seed itself.
std::uint64_t scenario_seed(std::uint64_t seed, int i) {
  return seed + static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
}

struct Printer {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back({name, value, unit});
    std::printf("  %-28s %14.6f %-8s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
  }
  /// Adds a percentile metric, or records why it cannot be reported.
  void add_percentile(const std::string& name, const Percentile& p,
                      std::vector<std::string>& errors, const char* of = nullptr) {
    char note[96];
    std::snprintf(note, sizeof(note), "(n=%zu%s%s, %zu beyond)", p.samples, of ? " " : "",
                  of ? of : "", p.beyond);
    if (!p.reportable) {
      errors.push_back(name + " not reportable: " + note);
      return;
    }
    add(name, p.value, "ms", note);
  }
};

void report_errors(const std::string& where, const std::vector<std::string>& found,
                   std::vector<std::string>& errors) {
  for (const auto& e : found) errors.push_back(where + ": " + e);
}

int finish(const std::vector<std::string>& errors, const OpsLedger& ops, const Printer& p) {
  std::printf("  %-28s %14llu of %llu attempted (ops_failed_frac %.6g)\n", "failed ops",
              static_cast<unsigned long long>(ops.failed()),
              static_cast<unsigned long long>(ops.attempted()), ops.failed_frac());
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  std::printf("%s\n", result_json(correct, ops, p.metrics).c_str());
  return correct ? 0 : 1;
}

/// Builds an instance and runs it through set-up; returns the set-up
/// seconds, or nothing when the instance could not be built.
std::optional<double> set_up(std::optional<Stack>& slot, const WorkloadSpec& w,
                             std::uint64_t seed, SpanLog* spans,
                             std::vector<std::string>& errors) {
  const std::int64_t t0 = now_ns();
  slot.emplace(w, seed, spans);
  if (!slot->error().empty()) {
    errors.push_back(slot->error());
    return std::nullopt;
  }
  slot->run_ticks(kWarmupTicks);
  const double secs = seconds_since(t0);
  std::fprintf(stderr, "perfbench: set-up %.3f s\n", secs);
  return secs;
}

int run_untraced(const WorkloadSpec& w, const Args& a) {
  std::vector<std::string> errors;
  OpsLedger ops;
  std::vector<double> setups;

  // A twin of instance 0 serves the replay check on the sim backend: after
  // set-up and kReplayTicks more ticks with every session's stream
  // digested, the two must agree on the wire and on every stream. Every
  // set-up counts toward setup_s.
  std::uint64_t twin_wire = 0;
  std::vector<std::string> twin_sessions;
  {
    std::optional<Stack> twin;
    const auto secs = set_up(twin, w, a.seed, nullptr, errors);
    if (!secs) return finish(errors, ops, Printer{});
    setups.push_back(*secs);
    twin->set_stream_digests(true);
    twin->run_ticks(kReplayTicks);
    twin_wire = twin->wire_hash();
    twin_sessions = twin->session_hashes();
    ops += twin->ops();
    report_errors("twin", twin->check(), errors);
  }
  // The measured instances settle, then run their measured ticks in turns.
  std::array<std::optional<Stack>, kScenarios> inst;
  std::vector<Stack*> stacks;
  for (int i = 0; i < kScenarios; ++i) {
    const std::uint64_t seed = scenario_seed(a.seed, i);
    const auto secs = set_up(inst[i], w, seed, nullptr, errors);
    if (!secs) return finish(errors, ops, Printer{});
    setups.push_back(*secs);
    Stack& s = *inst[i];
    if (i == 0) {
      s.set_stream_digests(true);
      s.run_ticks(kReplayTicks);
      s.set_stream_digests(false);
      if (!w.udp && (twin_wire != s.wire_hash() || twin_sessions != s.session_hashes())) {
        errors.push_back("replay: two instances of seed " + std::to_string(seed) +
                         " gave different wire or session stream hashes");
      }
    }
    s.run_ticks(kSettleTicks - (i == 0 ? kReplayTicks : 0));
    stacks.push_back(&s);
  }
  const std::uint64_t ticks = kBehaviourTicks;
  const std::vector<Window> wins = measure(stacks, a.seconds, ticks, w.udp);

  std::vector<double> step_ms;
  SpellFilter steps, probe_latency;
  Histogram latency;
  std::vector<double> pos_error;
  std::uint64_t measured = 0, behaviour_ticks = 0, egress_bytes = 0, egress_frames = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const Window& win = wins[i];
    const std::string name = "instance " + std::to_string(i);
    if (win.ticks() < ticks) {
      errors.push_back("measurement ran out of time");
      return finish(errors, ops, Printer{});
    }
    if (win.end.updates_applied == win.begin.updates_applied) {
      errors.push_back(name + ": no updates applied in the window");
    }
    step_ms.insert(step_ms.end(), win.step_ms.begin(), win.step_ms.end());
    steps.merge(spells_of(win.step_ms));
    pos_error.insert(pos_error.end(), win.pos_error.begin(), win.pos_error.end());
    measured += win.ticks();
    behaviour_ticks += win.behaviour_ticks;
    egress_bytes += win.behaviour_end.egress_bytes - win.begin.egress_bytes;
    egress_frames += win.behaviour_end.egress_frames - win.begin.egress_frames;
    if (w.udp) {
      probe_latency.merge(win.probe_latency);
    } else {
      latency.merge(win.latency);
    }
    ops += inst[i]->ops();
    report_errors(name, inst[i]->check(), errors);
  }
  const double sim_seconds = static_cast<double>(behaviour_ticks) * 0.05;

  Printer p;
  std::printf("perfbench %s seed=%llu: %d instances, %llu measured ticks, behaviour over the "
              "first %llu of each (%.1f simulated s)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), kScenarios,
              static_cast<unsigned long long>(measured),
              static_cast<unsigned long long>(kBehaviourTicks), sim_seconds);
  char note[64];
  std::snprintf(note, sizeof(note), "(median of %zu set-ups)", setups.size());
  p.add("setup_s", percentile(setups, 0.5).value, "s", note);
  p.add_percentile("tick_p50_ms", steps.p50(), errors, "blocks of 10 ticks");
  p.add_percentile("tick_p99_ms", steps.p99(), errors);
  p.add("egress_kbps", static_cast<double>(egress_bytes) * 8.0 / 1000.0 / sim_seconds, "kbit/s",
        "(server application bytes per simulated second)");
  if (w.udp) {
    p.add_percentile("update_latency_p50_ms", probe_latency.p50(), errors, "blocks of 5 ticks");
    p.add_percentile("update_latency_p99_ms", probe_latency.p99(), errors);
  } else {
    p.add_percentile("update_latency_p50_ms", latency.percentile(0.50), errors);
    p.add_percentile("update_latency_p99_ms", latency.percentile(0.99), errors);
  }
  double pos_sum = 0.0;
  for (const double e : pos_error) pos_sum += e;
  if (pos_error.empty()) errors.push_back("no positional-error samples");
  p.add("pos_error_mean_blocks",
        pos_error.empty() ? 0.0 : pos_sum / static_cast<double>(pos_error.size()), "blocks");
  p.add("peak_rss_mb", wins[0].peak_rss_mb, "MB",
        "(after the first " + std::to_string(kBehaviourTicks) + " measured ticks of each)");
  std::printf("  %-28s %14.6f %-8s %s\n", "p50 step, all ticks",
              percentile(step_ms, 0.5).value, "ms", "(not a metric: slow spells move it)");
  std::printf("  %-28s %14.6f %-8s %s\n", "p99 step, all ticks",
              percentile(step_ms, 0.99).value, "ms", "(not a metric: slow spells move it)");
  std::printf("  %-28s %14.6f %-8s %s\n", "net.modeled_ms",
              inst[0]->modeled_ms(egress_frames, egress_bytes) /
                  static_cast<double>(behaviour_ticks),
              "ms",
              "MODELED per tick, not part of any measured metric");
  return finish(errors, ops, p);
}

int run_traced(const WorkloadSpec& w, const Args& a) {
  std::vector<std::string> errors;
  OpsLedger ops;
  // An untraced and a traced instance of the same seed run the same ticks,
  // in turns, so trace.overhead_frac compares them under the same spells.
  SpanLog log;
  std::optional<Stack> u, s;
  if (!set_up(u, w, a.seed, nullptr, errors)) return finish(errors, ops, Printer{});
  if (!set_up(s, w, a.seed, &log, errors)) return finish(errors, ops, Printer{});
  u->run_ticks(kSettleTicks);
  s->run_ticks(kSettleTicks);
  log.clear();
  const std::uint64_t ticks = kBehaviourTicks;
  const std::vector<Window> wins = measure({&*u, &*s}, a.seconds, ticks);
  const Window& win = wins[1];
  if (win.ticks() < ticks) errors.push_back("measurement ran out of time");
  if (!w.udp && s->wire_hash() != u->wire_hash()) {
    errors.push_back("replay: the traced instance left the untraced instance's wire");
  }
  const double untraced_p50 = spells_of(wins[0].step_ms).p50().value;
  for (Stack* x : {&*u, &*s}) {
    ops += x->ops();
    report_errors(x == &*u ? "untraced" : "traced", x->check(), errors);
  }
  if (!a.spans.empty() && !log.write_csv(a.spans)) {
    errors.push_back("cannot write spans to " + a.spans);
  }

  const double n = static_cast<double>(win.ticks());
  const Counters& b = win.begin;
  const Counters& e = win.end;
  const auto per_tick = [&](std::uint64_t v1, std::uint64_t v0) {
    return static_cast<double>(v1 - v0) / n;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto report = s->server().profiler().report();
  const auto phase = [&](const char* name) {
    for (const auto& ph : report.phases) {
      if (ph.name == name) return ph.ms.mean();
    }
    return 0.0;
  };
  const auto span_ms = [&](const char* name, const char* parent = nullptr) {
    return log.busy_ms(name, parent) / n;
  };
  const auto& nb = b.server_net;
  const auto& ne = e.server_net;
  const auto tag_bytes = [&](std::initializer_list<MessageType> types) {
    std::uint64_t v = 0;
    for (const auto t : types) {
      const auto i = static_cast<std::size_t>(t);
      v += ne.server_bytes_by_tag[i] - nb.server_bytes_by_tag[i];
    }
    return static_cast<double>(v) / n;
  };
  const double frames = per_tick(ne.server_frames, nb.server_frames);
  const double bytes = per_tick(ne.server_bytes, nb.server_bytes);
  const double enqueued = per_tick(e.dyconit.enqueued, b.dyconit.enqueued);
  const double coalesced = per_tick(e.dyconit.coalesced, b.dyconit.coalesced);
  const double hits = static_cast<double>(win.pool_hits) / n;
  const double misses = static_cast<double>(win.pool_misses) / n;
  const double datagrams = per_tick(e.datagrams, b.datagrams);
  const double traced_p50 = spells_of(win.step_ms).p50().value;
  const auto& srv = s->server();
  const auto& os = srv.overload_stats();
  const auto pressure = srv.transport_pressure();
  const double chunk = tag_bytes({MessageType::ChunkData});
  const double moves = tag_bytes({MessageType::EntityMove, MessageType::EntityMoveBatch});
  const double blocks = tag_bytes({MessageType::BlockChange, MessageType::MultiBlockChange});

  Printer p;
  std::printf("perfbench %s seed=%llu traced: %llu ticks (per-tick means unless a count)\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(win.ticks()));
  p.add("dyconit.enqueue_ms", phase("dyconit.enqueue"), "ms");
  p.add("dyconit.flush_due_ms", phase("dyconit.flush_due"), "ms");
  p.add("dyconit.gc_ms", phase("dyconit.gc"), "ms");
  p.add("server.dyconit_flush_ms", phase("server.dyconit_flush"), "ms");
  p.add("dyconit.enqueued", enqueued, "1/tick");
  p.add("dyconit.coalesced", coalesced, "1/tick");
  p.add("dyconit.delivered", per_tick(e.dyconit.delivered, b.dyconit.delivered), "1/tick");
  p.add("dyconit.coalesce_frac", ratio(coalesced, enqueued), "frac");
  p.add("dyconit.flushes_staleness",
        per_tick(e.dyconit.flushes_staleness, b.dyconit.flushes_staleness), "1/tick");
  p.add("dyconit.flushes_numerical",
        per_tick(e.dyconit.flushes_numerical, b.dyconit.flushes_numerical), "1/tick");
  p.add("dyconit.flushes_forced", per_tick(e.dyconit.flushes_forced, b.dyconit.flushes_forced),
        "1/tick");
  p.add("dyconit.queued_p99", percentile(win.queued, 0.99).value, "count");
  p.add("server.dispatch_ms", phase("server.dispatch"), "ms");
  p.add("server.serialize_send_ms", phase("server.serialize_send"), "ms");
  p.add("net.send_ms", span_ms("net.send", "server.tick"), "ms");
  p.add("net.poll_ms", span_ms("net.poll", "server.tick"), "ms");
  p.add("net.frames", frames, "1/tick");
  p.add("net.bytes_per_frame", ratio(bytes, frames), "B");
  p.add("net.pool_hits", hits, "1/tick");
  p.add("net.pool_misses", misses, "1/tick");
  p.add("net.pool_miss_frac", ratio(misses, hits + misses), "frac");
  p.add("net.pool_high_water", static_cast<double>(BufferPool::instance().stats().high_water),
        "count", "(process-wide)");
  p.add("net.pump_ms", span_ms("net.pump", "server.step"), "ms");
  p.add("net.flush_egress_ms", span_ms("net.flush_egress", "server.step"), "ms");
  p.add("net.datagrams", datagrams, "1/tick");
  p.add("net.frames_per_datagram", ratio(frames, datagrams), "frames");
  p.add("net.send_failures", static_cast<double>(pressure.send_failures), "count");
  p.add("net.send_retries", static_cast<double>(pressure.send_retries), "count");
  p.add("server.chunks_ms", phase("server.chunks"), "ms");
  p.add("world.loaded_chunks", static_cast<double>(s->world().loaded_chunk_count()), "count");
  p.add("protocol.bytes.chunk_data", chunk, "B/tick");
  p.add("server.policy_ms", phase("server.policy"), "ms");
  p.add("server.tick_ms", span_ms("server.tick"), "ms");
  p.add("server.inbound_ms", phase("server.inbound"), "ms");
  p.add("server.mobs_ms", phase("server.mobs"), "ms");
  p.add("server.keepalive_ms", phase("server.keepalive"), "ms");
  p.add("server.overload_ms", phase("server.overload"), "ms");
  p.add("server.sessions", static_cast<double>(srv.player_count()), "count");
  p.add("server.resyncs_served", static_cast<double>(srv.resyncs_served()), "count");
  p.add("server.chunks_deferred", static_cast<double>(os.chunks_deferred), "count");
  p.add("server.egress_shed",
        static_cast<double>(os.egress_evicted_moves + os.egress_dropped_moves +
                            os.egress_dropped_ordered),
        "count");
  p.add("protocol.bytes.entity_move", moves, "B/tick");
  p.add("protocol.bytes.block_change", blocks, "B/tick");
  p.add("protocol.bytes.other", bytes - chunk - moves - blocks, "B/tick");
  p.add("bots.tick_ms", span_ms("bots.tick"), "ms");
  p.add("bots.updates_applied", per_tick(e.updates_applied, b.updates_applied), "1/tick");
  p.add("bots.gaps", static_cast<double>(s->bot_gaps()), "count");
  p.add("bots.resyncs_requested", static_cast<double>(s->bot_resyncs_requested()), "count");
  p.add("net.modeled_ms",
        s->modeled_ms(ne.server_frames - nb.server_frames, ne.server_bytes - nb.server_bytes) /
            n,
        "ms", "MODELED, not part of any measured metric");
  p.add("trace.overhead_frac", ratio(traced_p50 - untraced_p50, untraced_p50), "frac",
        "(traced vs untraced tick_p50_ms over the same ticks)");
  return finish(errors, ops, p);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& w = *find_workload(args.workload);
  const int rc = args.trace ? run_traced(w, args) : run_untraced(w, args);
  std::fflush(stdout);
  return rc;
}
