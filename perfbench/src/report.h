// Reporting rules of the benchmark: which percentiles may be printed, how
// failed operations are counted, and the result line the benchmark ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie beyond
/// it, so one outlier cannot set it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples strictly above the value
  bool reportable = false;  ///< beyond >= kMinSamplesBeyond
};

/// Percentile q in [0,1] of `xs` as dyconits::Samples::percentile picks it:
/// the sample at index round(q * (n - 1)) of the sorted samples. `beyond`
/// counts the samples strictly above it.
Percentile percentile(const std::vector<double>& xs, double q);

/// Samples counted at a resolution of 1/1000 of their unit (latency in ms:
/// per microsecond): the same percentiles as percentile() at that
/// resolution, in memory that does not grow with the number of samples.
class Histogram {
 public:
  void add(double x);
  void merge(const Histogram& other);
  std::uint64_t count() const { return n_; }
  Percentile percentile(double q) const;

 private:
  std::map<std::int64_t, std::uint64_t> per_milli_;
  std::uint64_t n_ = 0;
};

/// Ticks in one block of step times.
inline constexpr std::size_t kBlockTicks = 10;

/// The percentiles of a timed quantity as it stands in a run's fast spells.
/// A slow spell of a shared host lasts seconds to minutes and raises every
/// time it covers, so whole blocks of ticks, not single ones. Samples
/// therefore arrive in blocks of consecutive ticks, and:
///  - p50() is the kFastBlocks percentile of the block medians: the median
///    step of the run's fastest 2% of blocks;
///  - p99() is the 99th percentile of every sample over its block's median,
///    times p50(): how far the spikes stand out, at the fast spells' speed.
/// A run wholly inside one slow spell still reads slow.
class SpellFilter {
 public:
  static constexpr double kFastBlocks = 0.02;

  /// Adds one block's samples; an empty block is skipped.
  void add_block(const std::vector<double>& samples);
  void merge(const SpellFilter& other);
  Percentile p50() const;
  Percentile p99() const;

 private:
  std::vector<double> medians_;
  Histogram relative_;
};

/// Operations attempted and failed over one run. A frame offered to the
/// transport and a join attempted are operations; a frame the transport
/// dropped or refused, a frame the receiver could not decode or rejected as
/// malformed, and a refused join are failures.
struct OpsLedger {
  std::uint64_t frames_offered = 0;
  std::uint64_t joins_attempted = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_refused = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t join_refusals = 0;

  std::uint64_t attempted() const { return frames_offered + joins_attempted; }
  std::uint64_t failed() const {
    return frames_dropped + frames_refused + decode_failures + malformed_frames +
           join_refusals;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const;
  OpsLedger& operator+=(const OpsLedger& o);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.
std::string result_json(bool correct, const OpsLedger& ops,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
