// Tests for the observability layer: metrics registry (counters +
// histograms, thread-safety, deterministic JSON export) and the
// simulated-timeline trace recorder (tracks, spans, gap-filling, category
// aggregation, Chrome trace_event export).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hybridndp::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(JsonEscapeTest, EscapesControlQuoteBackslash) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(CounterTest, AddAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(HistogramTest, StatsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.Record(0.25);  // bucket 0 (< 1)
  h.Record(3);     // [2, 4)
  h.Record(4);     // [4, 8)
  h.Record(1000);  // [512, 1024)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1007.25);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1007.25 / 4);
  const std::string j = h.ToJson();
  EXPECT_NE(j.find("\"count\":4"), std::string::npos) << j;
  EXPECT_NE(j.find("\"1024\":1"), std::string::npos) << j;
}

TEST(MetricsRegistryTest, CreateOnFirstUseStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(reg.CounterValue("x"), 3u);
  EXPECT_EQ(reg.CounterValue("never-created"), 0u);
  reg.histogram("h")->Record(2);
  EXPECT_EQ(reg.num_counters(), 1u);
  EXPECT_EQ(reg.num_histograms(), 1u);
}

TEST(MetricsRegistryTest, JsonIsDeterministicAndSorted) {
  MetricsRegistry reg;
  reg.counter("zeta")->Add(1);
  reg.counter("alpha")->Add(2);
  const std::string j = reg.ToJson();
  const size_t alpha = j.find("\"alpha\"");
  const size_t zeta = j.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);  // std::map iteration order
  EXPECT_EQ(j, reg.ToJson());
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter* c = reg.counter("shared");
      Histogram* h = reg.histogram("sizes");
      for (int i = 0; i < kIters; ++i) {
        c->Add();
        h->Record(static_cast<double>(i % 97));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.CounterValue("shared"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("sizes")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

// ------------------------------------------------------------------ trace

TEST(TraceRecorderTest, SpansAndCategoryTotals) {
  TraceRecorder rec;
  const int t0 = rec.NewTrack("host");
  const int t1 = rec.NewTrack("device");
  EXPECT_NE(t0, t1);
  rec.Span(t0, "setup", "setup", 0, 100);
  rec.Span(t0, "wait", "wait", 100, 250);
  rec.Span(t1, "batch 0", "produce", 10, 60,
           {TraceArg::Num("rows", uint64_t{5})});
  EXPECT_EQ(rec.num_tracks(), 2u);
  EXPECT_EQ(rec.num_spans(), 3u);
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t0, "setup"), 100.0);
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t0, "wait"), 150.0);
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t0, "produce"), 0.0);  // other track
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t1, "produce"), 50.0);
  EXPECT_EQ(rec.TrackSpans(t0).size(), 2u);
  EXPECT_EQ(rec.TrackSpans(t1).size(), 1u);
}

TEST(TraceRecorderTest, GapFillCoversOnlyUncoveredIntervals) {
  TraceRecorder rec;
  const int t = rec.NewTrack("host");
  rec.Span(t, "a", "wait", 10, 20);
  rec.Span(t, "b", "transfer", 30, 40);
  rec.GapFill(t, 0, 50, "processing", "processing");
  // Gaps: [0,10), [20,30), [40,50) -> 30 ns of processing.
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t, "processing"), 30.0);
  // All categories together tile [0, 50].
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t, "processing") +
                       rec.CategoryTotal(t, "wait") +
                       rec.CategoryTotal(t, "transfer"),
                   50.0);
}

TEST(TraceRecorderTest, GapFillWithNoSpansFillsWholeRange) {
  TraceRecorder rec;
  const int t = rec.NewTrack("host");
  rec.GapFill(t, 0, 123, "processing", "processing");
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t, "processing"), 123.0);
  ASSERT_EQ(rec.TrackSpans(t).size(), 1u);
  EXPECT_DOUBLE_EQ(rec.TrackSpans(t)[0].start_ns, 0.0);
  EXPECT_DOUBLE_EQ(rec.TrackSpans(t)[0].end_ns, 123.0);
}

TEST(TraceRecorderTest, GapFillIgnoresOtherTracks) {
  TraceRecorder rec;
  const int t0 = rec.NewTrack("host");
  const int t1 = rec.NewTrack("device");
  rec.Span(t1, "busy", "produce", 0, 100);
  rec.GapFill(t0, 0, 100, "processing", "processing");
  EXPECT_DOUBLE_EQ(rec.CategoryTotal(t0, "processing"), 100.0);
}

TEST(TraceRecorderTest, ChromeJsonShape) {
  TraceRecorder rec;
  const int t = rec.NewTrack("NATIVE [host]");
  rec.Span(t, "processing", "processing", 0, 2'000'000,
           {TraceArg::Num("rows", uint64_t{12}),
            TraceArg::Str("note", "a\"b")});
  const std::string j = rec.ToChromeJson();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(j.find("NATIVE [host]"), std::string::npos);
  // 2 ms = 2000 us.
  EXPECT_NE(j.find("\"dur\":2000"), std::string::npos) << j;
  EXPECT_NE(j.find("\"rows\":12"), std::string::npos) << j;
  EXPECT_NE(j.find("a\\\"b"), std::string::npos) << j;
}

TEST(TraceRecorderTest, ConcurrentSpanRecording) {
  TraceRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kSpans = 1000;
  std::vector<int> tracks;
  for (int t = 0; t < kThreads; ++t) {
    tracks.push_back(rec.NewTrack("track " + std::to_string(t)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, &tracks, t] {
      for (int i = 0; i < kSpans; ++i) {
        rec.Span(tracks[t], "s", "work", i, i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.num_spans(), static_cast<size_t>(kThreads) * kSpans);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(rec.CategoryTotal(tracks[t], "work"),
                     static_cast<double>(kSpans));
  }
}

// ------------------------------------------------- canonical export bytes

// Two registries fed the same metrics in different insertion orders must
// export identical bytes: ToJson iterates sorted maps, never hash/insertion
// order (the determinism contract hndp-lint's unordered-serialize rule and
// DESIGN.md §13 pin down).
TEST(CanonicalJsonTest, MetricsBytesIndependentOfInsertionOrder) {
  MetricsRegistry a;
  a.counter("zeta")->Add(7);
  a.counter("alpha")->Add(3);
  a.histogram("lat")->Record(5);
  a.histogram("bytes")->Record(9);

  MetricsRegistry b;
  b.histogram("bytes")->Record(9);
  b.counter("alpha")->Add(3);
  b.histogram("lat")->Record(5);
  b.counter("zeta")->Add(7);

  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// Two recorders holding the same per-track spans must export identical
// bytes regardless of how concurrent appends interleaved across tracks:
// ToChromeJson groups by track, and within one track the recording order is
// single-writer deterministic.
TEST(CanonicalJsonTest, TraceBytesIndependentOfAppendInterleaving) {
  TraceRecorder a;
  TraceRecorder b;
  const int host_a = a.NewTrack("host");
  const int dev_a = a.NewTrack("device");
  const int host_b = b.NewTrack("host");
  const int dev_b = b.NewTrack("device");

  // Recorder a: strictly alternating interleaving.
  for (int i = 0; i < 16; ++i) {
    a.Span(host_a, "h" + std::to_string(i), "work", i, i + 1);
    a.Span(dev_a, "d" + std::to_string(i), "work", i, i + 1);
  }
  // Recorder b: one track fully first — the other extreme interleaving.
  for (int i = 0; i < 16; ++i) {
    b.Span(dev_b, "d" + std::to_string(i), "work", i, i + 1);
  }
  for (int i = 0; i < 16; ++i) {
    b.Span(host_b, "h" + std::to_string(i), "work", i, i + 1);
  }

  EXPECT_EQ(a.ToChromeJson(), b.ToChromeJson());
}

TEST(WriteFileTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/obs_write_test.json";
  ASSERT_TRUE(WriteFile(path, "{\"ok\": true}\n"));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "{\"ok\": true}\n");
  EXPECT_FALSE(WriteFile("/nonexistent-dir-zz/x.json", "x"));
}

}  // namespace
}  // namespace hybridndp::obs
