#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/stats.h"

namespace perfbench {

namespace {

Percentile reported(double value, std::size_t samples, std::size_t beyond) {
  Percentile p;
  p.value = value;
  p.samples = samples;
  p.beyond = beyond;
  p.reportable = samples > 0 && beyond >= kMinSamplesBeyond;
  return p;
}

}  // namespace

Percentile percentile(const std::vector<double>& xs, double q) {
  dyconits::Samples s;
  s.reserve(xs.size());
  for (const double x : xs) s.add(x);
  const double value = s.percentile(q);
  const auto above = static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [value](double x) { return x > value; }));
  return reported(value, xs.size(), above);
}

void Histogram::add(double x) {
  ++per_milli_[std::llround(x * 1000.0)];
  ++n_;
}

void Histogram::merge(const Histogram& other) {
  for (const auto& [milli, count] : other.per_milli_) per_milli_[milli] += count;
  n_ += other.n_;
}

Percentile Histogram::percentile(double q) const {
  if (n_ == 0) return reported(0.0, 0, 0);
  // The sorted index dyconits::Samples::percentile takes.
  const auto index = static_cast<std::uint64_t>(std::clamp(q, 0.0, 1.0) *
                                                    static_cast<double>(n_ - 1) +
                                                0.5);
  std::uint64_t seen = 0;
  for (const auto& [milli, count] : per_milli_) {
    seen += count;
    if (seen > index) return reported(static_cast<double>(milli) / 1000.0, n_, n_ - seen);
  }
  return reported(0.0, n_, 0);
}

void SpellFilter::add_block(const std::vector<double>& samples) {
  if (samples.empty()) return;
  dyconits::Samples block;
  for (const double x : samples) block.add(x);
  const double median = block.median();
  medians_.push_back(median);
  for (const double x : samples) relative_.add(median > 0.0 ? x / median : 1.0);
}

void SpellFilter::merge(const SpellFilter& other) {
  medians_.insert(medians_.end(), other.medians_.begin(), other.medians_.end());
  relative_.merge(other.relative_);
}

Percentile SpellFilter::p50() const { return percentile(medians_, kFastBlocks); }

Percentile SpellFilter::p99() const {
  Percentile p = relative_.percentile(0.99);
  p.value *= p50().value;
  return p;
}

double OpsLedger::failed_frac() const {
  const std::uint64_t a = attempted();
  return a == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(a);
}

OpsLedger& OpsLedger::operator+=(const OpsLedger& o) {
  frames_offered += o.frames_offered;
  joins_attempted += o.joins_attempted;
  frames_dropped += o.frames_dropped;
  frames_refused += o.frames_refused;
  decode_failures += o.decode_failures;
  malformed_frames += o.malformed_frames;
  join_refusals += o.join_refusals;
  return *this;
}

std::string result_json(bool correct, const OpsLedger& ops,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted());
  out += ", \"failed\": " + std::to_string(ops.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g round-trips a double: the value is printed with all its digits.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
