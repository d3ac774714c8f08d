#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hybridndp::perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

RateWindows::RateWindows(WallClock::time_point start, double seconds)
    : start_(start),
      counts_(std::max<size_t>(1, static_cast<size_t>(seconds)), 0.0) {}

void RateWindows::Add(WallClock::time_point done, uint64_t ops) {
  const double t = SecondsBetween(start_, done);
  if (t < 0) return;
  const size_t w = static_cast<size_t>(t);
  if (w < counts_.size()) counts_[w] += static_cast<double>(ops);
}

void RateWindows::Merge(const RateWindows& other) {
  for (size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

double RateWindows::MedianRate() const { return Quantile(counts_, 0.5); }

std::string RateWindows::ToString() const {
  std::string out;
  for (double c : counts_) {
    if (!out.empty()) out += ' ';
    out += std::to_string(static_cast<uint64_t>(c));
  }
  return out;
}

void Reservoir::Add(double v) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(v);
    return;
  }
  const uint64_t slot = rng_.Uniform(seen_);
  if (slot < kCapacity) values_[slot] = v;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ProcCounters ProcCounters::Now() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  ProcCounters c;
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  c.minor_faults = static_cast<double>(ru.ru_minflt);
  return c;
}

namespace {

int64_t SinceEpochNs(WallClock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

void SpanLog::Begin(const char* name, uint64_t op) {
  const WallClock::time_point now = WallClock::now();
  int64_t stored = -1;
  if (spans_.size() < kMaxStoredSpans) {
    stored = static_cast<int64_t>(spans_.size());
    const int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    spans_.push_back(Stored{name, op, parent, SinceEpochNs(now), 0});
  }
  stack_.push_back(Open{name, op, now, 0.0, stored});
}

void SpanLog::End() {
  const WallClock::time_point now = WallClock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = SecondsBetween(open.start, now);
  if (open.stored >= 0) spans_[open.stored].end_ns = SinceEpochNs(now);
  if (!stack_.empty()) stack_.back().child_s += dur;
  Totals& t = totals_[open.name];
  ++t.count;
  t.total_s += dur;
  t.self_s += dur - open.child_s;
}

void SpanLog::AppendChromeEvents(std::string* out, bool* first) const {
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Stored& s = spans_[i];
    snprintf(buf, sizeof(buf),
             "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
             "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
             "\"op\":%llu}}",
             *first ? "" : ",\n", s.name, thread_id_, s.start_ns / 1e3,
             (s.end_ns - s.start_ns) / 1e3, i, static_cast<long long>(s.parent),
             static_cast<unsigned long long>(s.op));
    *out += buf;
    *first = false;
  }
}

std::string PhaseResult::ExportSpans(uint64_t ops) {
  std::map<std::string, SpanLog::Totals> totals;
  for (const SpanLog& log : span_logs) {
    for (const auto& [name, t] : log.totals()) {
      SpanLog::Totals& sum = totals[name];
      sum.count += t.count;
      sum.total_s += t.total_s;
      sum.self_s += t.self_s;
    }
  }
  const double per_op = ops > 0 ? 1e6 / static_cast<double>(ops) : 0;
  for (const auto& [name, t] : totals) {
    values["self_us." + name] = t.self_s * per_op;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanLog& log : span_logs) log.AppendChromeEvents(&out, &first);
  out += "\n],\"self_time_s\":{";
  first = true;
  char buf[256];
  for (const auto& [name, t] : totals) {
    snprintf(buf, sizeof(buf),
             "%s\"%s\":{\"count\":%llu,\"total_s\":%.9f,\"self_s\":%.9f}",
             first ? "" : ",", name.c_str(),
             static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
    out += buf;
    first = false;
  }
  out += "}}\n";
  return out;
}

}  // namespace hybridndp::perfbench
