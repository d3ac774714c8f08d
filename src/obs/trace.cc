#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace hybridndp::obs {

namespace {

std::string RenderNumber(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[32];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

TraceArg TraceArg::Num(std::string key, double v) {
  return {std::move(key), RenderNumber(v)};
}

TraceArg TraceArg::Num(std::string key, uint64_t v) {
  return {std::move(key), std::to_string(v)};
}

TraceArg TraceArg::Str(std::string key, std::string_view v) {
  // Built with += rather than operator+ chains: gcc 12's -Wrestrict has a
  // false positive on `"literal" + std::string&&` under -O2.
  std::string quoted;
  quoted.reserve(v.size() + 2);
  quoted += '"';
  quoted += JsonEscape(v);
  quoted += '"';
  return {std::move(key), std::move(quoted)};
}

int TraceRecorder::NewTrack(const std::string& name) {
  common::MutexLock lock(mu_);
  tracks_.push_back(Track{name, {}});
  return static_cast<int>(tracks_.size()) - 1;
}

void TraceRecorder::Span(int track, std::string name, std::string cat,
                         SimNanos start_ns, SimNanos end_ns,
                         std::vector<TraceArg> args) {
  if (end_ns < start_ns) end_ns = start_ns;
  common::MutexLock lock(mu_);
  tracks_[track].spans.push_back(TraceSpan{std::move(name), std::move(cat),
                                           start_ns, end_ns, std::move(args)});
}

void TraceRecorder::GapFill(int track, SimNanos start_ns, SimNanos end_ns,
                            const std::string& name, const std::string& cat) {
  // One critical section end to end: computing the gaps and appending them
  // must be atomic, or a Span() racing in on the same track between a
  // read-then-append pair would leave gap spans overlapping it.
  common::MutexLock lock(mu_);
  std::vector<TraceSpan>& spans = tracks_[track].spans;
  std::vector<std::pair<SimNanos, SimNanos>> covered;
  for (const auto& s : spans) {
    if (s.end_ns > s.start_ns) covered.emplace_back(s.start_ns, s.end_ns);
  }
  std::sort(covered.begin(), covered.end());
  SimNanos cursor = start_ns;
  for (const auto& [a, b] : covered) {
    if (a > cursor) {
      spans.push_back(TraceSpan{name, cat, cursor, std::min(a, end_ns), {}});
    }
    if (b > cursor) cursor = b;
    if (cursor >= end_ns) break;
  }
  if (cursor < end_ns) {
    spans.push_back(TraceSpan{name, cat, cursor, end_ns, {}});
  }
}

SimNanos TraceRecorder::CategoryTotal(int track, std::string_view cat) const {
  common::MutexLock lock(mu_);
  SimNanos total = 0;
  for (const auto& s : tracks_[track].spans) {
    if (s.cat == cat) total += s.duration();
  }
  return total;
}

size_t TraceRecorder::num_tracks() const {
  common::MutexLock lock(mu_);
  return tracks_.size();
}

size_t TraceRecorder::num_spans() const {
  common::MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& t : tracks_) n += t.spans.size();
  return n;
}

std::vector<TraceSpan> TraceRecorder::TrackSpans(int track) const {
  common::MutexLock lock(mu_);
  return tracks_[track].spans;
}

std::string TraceRecorder::ToChromeJson() const {
  common::MutexLock lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  // Track metadata: names + UI ordering. All tracks share pid 1.
  for (size_t t = 0; t < tracks_.size(); ++t) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t + 1
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << JsonEscape(tracks_[t].name) << "\"}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t + 1
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
       << t + 1 << "}}";
  }
  // Complete ('X') events; simulated nanos -> microseconds.
  for (size_t t = 0; t < tracks_.size(); ++t) {
    for (const TraceSpan& s : tracks_[t].spans) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << t + 1 << ",\"name\":\""
         << JsonEscape(s.name) << "\",\"cat\":\"" << JsonEscape(s.cat)
         << "\",\"ts\":" << RenderNumber(s.start_ns / 1e3)
         << ",\"dur\":" << RenderNumber(s.duration() / 1e3);
      if (!s.args.empty()) {
        os << ",\"args\":{";
        for (size_t i = 0; i < s.args.size(); ++i) {
          if (i > 0) os << ",";
          os << "\"" << JsonEscape(s.args[i].key) << "\":" << s.args[i].value;
        }
        os << "}";
      }
      os << "}";
    }
  }
  os << "]}";
  return os.str();
}

bool WriteFile(const std::string& path, std::string_view contents) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "obs: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  const size_t written = fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = written == contents.size() && fclose(f) == 0;
  if (!ok) fprintf(stderr, "obs: short write to '%s'\n", path.c_str());
  return ok;
}

}  // namespace hybridndp::obs
