// Observability primitives: counter/gauge/histogram semantics, log-bucket
// boundaries, registry identity and snapshots, span nesting and ring
// bounds, exposition formats, and the concurrent-increment contract
// (this binary is part of the TSan suite — see scripts/tsan_check.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.h"
#include "io/json.h"
#include "io/metrics_io.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace anr {
namespace {

// --- Counter / Gauge --------------------------------------------------------

TEST(Counter, IncrementsByOneAndByDelta) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetOverwritesAndAddAccumulates) {
  obs::Gauge g;
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// --- Histogram bucketing ----------------------------------------------------

TEST(Histogram, DefaultSpecCoversMicrosecondsToMinutes) {
  obs::Histogram h;
  const auto& bounds = h.upper_bounds();
  ASSERT_EQ(static_cast<int>(bounds.size()), h.spec().buckets);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_GT(bounds.back(), 100.0);  // ~268 s at factor 2
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
  }
}

TEST(Histogram, BoundariesAreUpperInclusive) {
  obs::HistogramSpec spec;
  spec.min = 1.0;
  spec.factor = 2.0;
  spec.buckets = 4;  // bounds 1, 2, 4, 8 (+Inf extra)
  obs::Histogram h(spec);

  h.observe(0.5);   // <= min          -> bucket 0
  h.observe(1.0);   // == min          -> bucket 0
  h.observe(2.0);   // == bound        -> bucket 1 (upper-inclusive)
  h.observe(2.001); // just above      -> bucket 2
  h.observe(8.0);   // last finite     -> bucket 3
  h.observe(9.0);   // beyond          -> +Inf bucket

  std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 2.0 + 2.001 + 8.0 + 9.0);
}

TEST(Histogram, NonPositiveAndTinyValuesLandInBucketZero) {
  obs::Histogram h;
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(1e-9);
  std::vector<std::uint64_t> counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, BucketTotalsMatchObservationCount) {
  obs::Histogram h;
  int n = 0;
  for (double v = 1e-7; v < 1e3; v *= 1.7) {
    h.observe(v);
    ++n;
  }
  std::vector<std::uint64_t> counts = h.bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(n));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(n));
}

TEST(Histogram, QuantileIsTheBucketBoundAtRankCeilQN) {
  obs::HistogramSpec spec;
  spec.min = 1.0;
  spec.factor = 2.0;
  spec.buckets = 4;  // bounds 1, 2, 4, 8 (+Inf extra)
  obs::Histogram h(spec);
  EXPECT_EQ(h.quantile(0.95), 0.0);  // empty

  for (int i = 0; i < 10; ++i) h.observe(2.0);  // bound 2 (upper-inclusive)
  for (int i = 0; i < 9; ++i) h.observe(3.0);   // bound 4
  h.observe(100.0);                             // +Inf
  // n = 20: the estimate is the bound of the bucket holding rank
  // ceil(q * n).
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);   // rank 10: the last 2.0
  EXPECT_DOUBLE_EQ(h.quantile(0.55), 4.0);  // rank 11: the first 3.0
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 4.0);  // rank 19
  // Rank 20 is the overflow observation, folded in one factor past the
  // last finite bound.
  EXPECT_DOUBLE_EQ(h.bucket_bound(4), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.96), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 16.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);  // rank clamps to 1
}

TEST(Histogram, BucketQuantileTakesPairsInAnyOrder) {
  // ceil(0.99 * 100) = 99: the lower bucket when it holds 99 of 100.
  EXPECT_DOUBLE_EQ(obs::bucket_quantile({{8.0, 1}, {1.0, 99}}, 0.99), 1.0);
  EXPECT_DOUBLE_EQ(obs::bucket_quantile({{8.0, 2}, {1.0, 98}}, 0.99), 8.0);
  // 0.55 * 100 evaluates to 55.00000000000001 in doubles; the rank is
  // still 55, not 56.
  EXPECT_DOUBLE_EQ(obs::bucket_quantile({{2.0, 45}, {1.0, 55}}, 0.55), 1.0);
  EXPECT_EQ(obs::bucket_quantile({}, 0.5), 0.0);
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, SameNameAndLabelsResolveToSameHandle) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("anr_test_total", {{"k", "v"}}, "help");
  obs::Counter* b = reg.counter("anr_test_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  a->inc();
  EXPECT_EQ(b->value(), 1u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("anr_t", {{"a", "1"}, {"b", "2"}});
  obs::Counter* b = reg.counter("anr_t", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(Registry, DistinctLabelsGetDistinctSeries) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("anr_t", {{"stage", "x"}});
  obs::Counter* b = reg.counter("anr_t", {{"stage", "y"}});
  EXPECT_NE(a, b);
}

TEST(Registry, TypeConflictThrows) {
  obs::Registry reg;
  reg.counter("anr_conflict");
  EXPECT_THROW(reg.gauge("anr_conflict"), ContractViolation);
  EXPECT_THROW(reg.histogram("anr_conflict"), ContractViolation);
}

TEST(Registry, SnapshotPreservesRegistrationOrderAndValues) {
  obs::Registry reg;
  reg.counter("anr_c")->inc(3);
  reg.gauge("anr_g")->set(2.5);
  reg.histogram("anr_h")->observe(0.25);
  std::vector<obs::MetricSnapshot> snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].name, "anr_c");
  EXPECT_EQ(snaps[0].type, obs::MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snaps[0].value, 3.0);
  EXPECT_EQ(snaps[1].name, "anr_g");
  EXPECT_DOUBLE_EQ(snaps[1].value, 2.5);
  EXPECT_EQ(snaps[2].name, "anr_h");
  EXPECT_EQ(snaps[2].count, 1u);
  EXPECT_DOUBLE_EQ(snaps[2].sum, 0.25);
}

TEST(NullRegistry, HandsOutNullHandlesEverywhere) {
  obs::NullRegistry null;
  EXPECT_FALSE(null.enabled());
  EXPECT_EQ(null.counter("anr_x"), nullptr);
  EXPECT_EQ(null.gauge("anr_x"), nullptr);
  EXPECT_EQ(null.histogram("anr_x"), nullptr);
  EXPECT_EQ(null.spans(), nullptr);
  EXPECT_TRUE(null.snapshot().empty());
  // The record helpers must be safe against the null handles.
  obs::inc(nullptr);
  obs::set(nullptr, 1.0);
  obs::add(nullptr, 1.0);
  obs::observe(nullptr, 1.0);
}

// --- Spans ------------------------------------------------------------------

TEST(Span, NestedSpansRecordDepthAndCompletionOrder) {
  obs::SpanRing ring(16);
  {
    obs::Span outer(&ring, "outer");
    {
      obs::Span inner(&ring, "inner");
    }
  }
  std::vector<obs::SpanRecord> recs = ring.snapshot();
  ASSERT_EQ(recs.size(), 2u);
  // Inner closes first, so it appears first (lower seq) at depth 1.
  EXPECT_STREQ(recs[0].name, "inner");
  EXPECT_EQ(recs[0].depth, 1);
  EXPECT_STREQ(recs[1].name, "outer");
  EXPECT_EQ(recs[1].depth, 0);
  EXPECT_LT(recs[0].seq, recs[1].seq);
  EXPECT_GE(recs[1].dur_s, recs[0].dur_s);
}

TEST(Span, FinishIsIdempotent) {
  obs::SpanRing ring(4);
  obs::Span s(&ring, "once");
  s.finish();
  s.finish();
  EXPECT_EQ(ring.snapshot().size(), 1u);
}

TEST(Span, FeedsDurationIntoHistogram) {
  obs::Histogram h;
  {
    obs::Span s(nullptr, "hist_only", &h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(Span, InertWhenBothTargetsNull) {
  obs::Span s(nullptr, "noop");
  s.finish();  // must not crash or record anywhere
}

TEST(SpanRing, BoundedOldestOverwritten) {
  obs::SpanRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.push("s", static_cast<double>(i), 0.0, 0);
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  std::vector<obs::SpanRecord> recs = ring.snapshot();
  ASSERT_EQ(recs.size(), 4u);
  // Oldest-first: the survivors are pushes 6..9.
  EXPECT_DOUBLE_EQ(recs.front().start_s, 6.0);
  EXPECT_DOUBLE_EQ(recs.back().start_s, 9.0);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seq, recs[i - 1].seq + 1);
  }
}

// --- Exposition -------------------------------------------------------------

TEST(Exposition, TextFormatCarriesHelpTypeAndCumulativeBuckets) {
  obs::Registry reg;
  reg.counter("anr_jobs_total", {{"status", "ok"}}, "jobs by status")->inc(3);
  reg.counter("anr_jobs_total", {{"status", "error"}})->inc(1);
  reg.gauge("anr_depth", {}, "queue depth")->set(2.0);
  obs::HistogramSpec spec;
  spec.min = 1.0;
  spec.factor = 2.0;
  spec.buckets = 2;  // bounds 1, 2
  obs::Histogram* h = reg.histogram("anr_lat_seconds", {}, "latency", spec);
  h->observe(0.5);
  h->observe(1.5);
  h->observe(99.0);

  std::string text = metrics_text_exposition(reg);
  EXPECT_NE(text.find("# HELP anr_jobs_total jobs by status"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE anr_jobs_total counter"), std::string::npos);
  EXPECT_NE(text.find("anr_jobs_total{status=\"ok\"} 3"), std::string::npos);
  EXPECT_NE(text.find("anr_jobs_total{status=\"error\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE anr_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("anr_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE anr_lat_seconds histogram"), std::string::npos);
  // Cumulative le buckets: 1 at le=1, 2 at le=2, 3 at +Inf.
  EXPECT_NE(text.find("anr_lat_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("anr_lat_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("anr_lat_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("anr_lat_seconds_sum 101"), std::string::npos);
  EXPECT_NE(text.find("anr_lat_seconds_count 3"), std::string::npos);
  // One HELP/TYPE header per family, not per sample.
  std::size_t first = text.find("# TYPE anr_jobs_total");
  std::size_t second = text.find("# TYPE anr_jobs_total", first + 1);
  EXPECT_EQ(second, std::string::npos);
}

TEST(Exposition, LabelValuesAreEscaped) {
  obs::Registry reg;
  reg.counter("anr_esc", {{"path", "a\\b\"c\nd"}})->inc();
  std::string text = metrics_text_exposition(reg);
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(Exposition, NdjsonLinesParseAndMatchSnapshot) {
  obs::Registry reg;
  reg.counter("anr_a")->inc(5);
  obs::HistogramSpec spec;
  spec.min = 1.0;
  spec.factor = 2.0;
  spec.buckets = 2;
  reg.histogram("anr_b", {}, {}, spec)->observe(1.5);

  std::ostringstream out;
  write_metrics_ndjson(reg, out);
  std::istringstream in(out.str());
  std::string line;
  std::vector<json::Value> rows;
  while (std::getline(in, line)) rows.push_back(json::parse(line));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("name").as_string(), "anr_a");
  EXPECT_EQ(rows[0].at("type").as_string(), "counter");
  EXPECT_DOUBLE_EQ(rows[0].at("value").as_number(), 5.0);
  EXPECT_EQ(rows[1].at("type").as_string(), "histogram");
  const auto& buckets = rows[1].at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);  // two finite + +Inf, cumulative
  EXPECT_DOUBLE_EQ(buckets.back().at("count").as_number(), 1.0);
}

TEST(Exposition, SpansSerializeOldestFirst) {
  obs::Registry reg;
  {
    obs::Span a(reg.spans(), "alpha");
  }
  {
    obs::Span b(reg.spans(), "beta");
  }
  json::Value v = spans_to_json(reg);
  const auto& arr = v.as_array();
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0].at("name").as_string(), "alpha");
  EXPECT_EQ(arr[1].at("name").as_string(), "beta");
}

// --- Concurrency (exercised under TSan in CI) -------------------------------

TEST(Concurrency, ParallelCounterIncrementsAreExact) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&reg] {
      // Resolve inside the thread: registration must also be thread-safe.
      obs::Counter* c = reg.counter("anr_par_total", {}, "parallel");
      for (int k = 0; k < kPerThread; ++k) c->inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("anr_par_total")->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Concurrency, ParallelHistogramObservationsAreExact) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h] {
      for (int k = 0; k < kPerThread; ++k) h.observe(1e-3);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t expect =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(h.count(), expect);
  EXPECT_NEAR(h.sum(), 1e-3 * static_cast<double>(expect), 1e-6);
  std::vector<std::uint64_t> counts = h.bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, expect);
}

TEST(Concurrency, ParallelGaugeAddsAreExact) {
  obs::Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&g] {
      for (int k = 0; k < kPerThread; ++k) g.add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(),
                   static_cast<double>(kThreads) * kPerThread);
}

TEST(Concurrency, ParallelSpanPushesStayBounded) {
  obs::SpanRing ring(64);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&ring] {
      for (int k = 0; k < 5000; ++k) {
        obs::Span s(&ring, "worker");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ring.total_recorded(), 20000u);
  EXPECT_EQ(ring.snapshot().size(), 64u);
}

}  // namespace
}  // namespace anr
