// Unit tests for the observability subsystem (src/obs/): histogram edge
// cases, trace sinks and the JSONL wire format, the telemetry bundle, and
// the X-macro-driven run report — including the pin that the JSON `stats`
// object carries exactly one key per ResolverStats field.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd.h"
#include "core/stats.h"
#include "core/types.h"
#include "obs/histogram.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace metricprox {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, EmptyReportsZerosNeverNaN) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 0.0) << "q=" << q;
  }
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  for (const double v : {s.min, s.max, s.sum, s.mean, s.p50, s.p90, s.p99}) {
    EXPECT_FALSE(std::isnan(v));
    EXPECT_EQ(v, 0.0);
  }
}

TEST(HistogramTest, SingleSampleIsReportedExactly) {
  Histogram h;
  h.Record(3.7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 3.7);
  EXPECT_EQ(h.max(), 3.7);
  EXPECT_EQ(h.sum(), 3.7);
  EXPECT_EQ(h.mean(), 3.7);
  // The bucket midpoint is clamped into [min, max] = [3.7, 3.7].
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 3.7) << "q=" << q;
  }
}

TEST(HistogramTest, BelowFirstBucketLandsInUnderflow) {
  Histogram h;
  h.Record(1e-300);  // far below the first octave at 2^-64
  h.Record(0.0);
  h.Record(-5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), 1e-300);
  // All three share the underflow bucket; quantiles stay within the exact
  // observed range instead of inventing a 2^-64-scale value.
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h.Quantile(q), -5.0);
    EXPECT_LE(h.Quantile(q), 1e-300);
  }
}

TEST(HistogramTest, OverflowBucketCatchesHugeAndInfinite) {
  Histogram h;
  h.Record(1e300);  // above the last octave at 2^64
  h.Record(kInf);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 1e300);
  EXPECT_TRUE(std::isinf(h.max()));
  EXPECT_GE(h.Quantile(0.5), 1e300);
}

TEST(HistogramTest, NaNSamplesAreDropped) {
  Histogram h;
  h.Record(kNaN);
  EXPECT_EQ(h.count(), 0u);
  h.Record(2.0);
  h.Record(kNaN);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 2.0);
}

TEST(HistogramTest, QuantileRelativeErrorIsBoundedBySubBuckets) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  // 4 sub-buckets per octave => <= 12.5% relative error from the midpoint.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 0.125 * 500.0);
  EXPECT_NEAR(h.Quantile(0.9), 900.0, 0.125 * 900.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 0.125 * 990.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
}

Histogram MakeFilled(std::initializer_list<double> values) {
  Histogram h;
  for (const double v : values) h.Record(v);
  return h;
}

void ExpectSameDistribution(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  const Histogram a = MakeFilled({1e-9, 3.0, 4.5, 1e6});
  const Histogram b = MakeFilled({0.25, 0.26, 700.0});
  const Histogram c = MakeFilled({2.0, 2.0, 2.0, 1e-30, kInf});

  Histogram ab_c = a;   // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  Histogram bc = b;     // a + (b + c)
  bc.Merge(c);
  Histogram a_bc = a;
  a_bc.Merge(bc);
  ExpectSameDistribution(ab_c, a_bc);

  Histogram ba = b;     // b + a == a + b
  ba.Merge(a);
  Histogram ab = a;
  ab.Merge(b);
  ExpectSameDistribution(ab, ba);
}

TEST(HistogramTest, MergeIntoEmptyEqualsSource) {
  const Histogram a = MakeFilled({0.5, 7.0, 42.0});
  Histogram empty;
  empty.Merge(a);
  ExpectSameDistribution(empty, a);
  // Merging an empty histogram is a no-op.
  Histogram copy = a;
  copy.Merge(Histogram());
  ExpectSameDistribution(copy, a);
}

// ---------------------------------------------------------------------------
// Trace sinks

TraceEvent EventWithSeq(uint64_t seq) {
  TraceEvent event;
  event.kind = TraceEventKind::kOracleCall;
  event.seq = seq;
  return event;
}

TEST(RingBufferTraceSinkTest, KeepsNewestOldestFirstAndCountsDropped) {
  RingBufferTraceSink sink(4);
  for (uint64_t s = 0; s < 10; ++s) sink.Emit(EventWithSeq(s));
  EXPECT_EQ(sink.emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, 6u + k);  // oldest surviving event first
  }
}

TEST(RingBufferTraceSinkTest, PartialFillSnapshotsInOrder) {
  RingBufferTraceSink sink(8);
  for (uint64_t s = 0; s < 3; ++s) sink.Emit(EventWithSeq(s));
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[2].seq, 2u);
}

TEST(TraceEventJsonTest, UnsetFieldsAreOmitted) {
  TraceEvent event;
  event.kind = TraceEventKind::kComparison;
  event.seq = 7;
  const std::string json = TraceEventToJson(event);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"comparison\""), std::string::npos);
  // Ids default to kInvalidObject, doubles to NaN, count to 0 — all absent.
  EXPECT_EQ(json.find("\"i\":"), std::string::npos);
  EXPECT_EQ(json.find("\"j\":"), std::string::npos);
  EXPECT_EQ(json.find("\"lb\":"), std::string::npos);
  EXPECT_EQ(json.find("\"threshold\":"), std::string::npos);
  EXPECT_EQ(json.find("\"count\":"), std::string::npos);
}

TEST(TraceEventJsonTest, SetFieldsAppearAndInfinityBecomesNull) {
  TraceEvent event;
  event.kind = TraceEventKind::kBoundInterval;
  event.i = 3;
  event.j = 9;
  event.lb = 1.5;
  event.ub = kInf;
  event.threshold = 2.0;
  const std::string json = TraceEventToJson(event);
  EXPECT_NE(json.find("\"kind\":\"bound_interval\""), std::string::npos);
  EXPECT_NE(json.find("\"i\":3"), std::string::npos);
  EXPECT_NE(json.find("\"j\":9"), std::string::npos);
  EXPECT_NE(json.find("\"lb\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"ub\":null"), std::string::npos);  // strict JSON
  EXPECT_NE(json.find("\"threshold\":2"), std::string::npos);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JsonlTraceSinkTest, WritesHeaderEventsAndFooter) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mp_trace_basic.jsonl")
          .string();
  {
    JsonlTraceSink sink(path, "test-run", /*limit=*/0);
    ASSERT_TRUE(sink.status().ok()) << sink.status();
    for (uint64_t s = 0; s < 3; ++s) sink.Emit(EventWithSeq(s));
    EXPECT_EQ(sink.written(), 3u);
    EXPECT_EQ(sink.dropped(), 0u);
    ASSERT_TRUE(sink.Close().ok());
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 5u);  // header + 3 events + footer
  EXPECT_NE(lines.front().find("\"schema\":\"metricprox-trace\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"trace_id\":\"test-run\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines.back().find("\"trace_footer\":true"), std::string::npos);
  EXPECT_NE(lines.back().find("\"events_written\":3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(JsonlTraceSinkTest, LimitBoundsTheFileAndCountsDrops) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mp_trace_limit.jsonl")
          .string();
  {
    JsonlTraceSink sink(path, "limited", /*limit=*/2);
    for (uint64_t s = 0; s < 5; ++s) sink.Emit(EventWithSeq(s));
    EXPECT_EQ(sink.written(), 2u);
    EXPECT_EQ(sink.dropped(), 3u);
    ASSERT_TRUE(sink.Close().ok());
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);  // header + 2 events + footer
  EXPECT_NE(lines.back().find("\"events_dropped\":3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(JsonlTraceSinkTest, UnwritablePathFailsGracefully) {
  JsonlTraceSink sink("/nonexistent-dir/trace.jsonl", "x", 0);
  EXPECT_FALSE(sink.status().ok());
  sink.Emit(EventWithSeq(0));  // no-op, must not crash
  EXPECT_EQ(sink.written(), 0u);
  EXPECT_FALSE(sink.Close().ok());
}

// ---------------------------------------------------------------------------
// Telemetry bundle

TEST(TelemetryTest, EmitStampsMonotonicSequence) {
  RingBufferTraceSink sink(16);
  Telemetry telemetry;
  telemetry.sink = &sink;
  EXPECT_TRUE(telemetry.tracing());
  for (int k = 0; k < 3; ++k) {
    TraceEvent event;
    event.kind = TraceEventKind::kRetry;
    telemetry.Emit(event);
  }
  const std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_LE(events[0].t_ns, events[2].t_ns);
}

TEST(TelemetryTest, EmitWithoutSinkIsANoOp) {
  Telemetry telemetry;
  EXPECT_FALSE(telemetry.tracing());
  telemetry.Emit(TraceEvent{});  // must not crash
  telemetry.bound_gap.Record(0.5);  // histograms still usable sink-less
  EXPECT_EQ(telemetry.bound_gap.count(), 1u);
}

TEST(TelemetryTest, RelativeBoundGap) {
  EXPECT_DOUBLE_EQ(RelativeBoundGap(Interval{2.0, 8.0}), 0.75);
  EXPECT_DOUBLE_EQ(RelativeBoundGap(Interval{3.0, 3.0}), 0.0);
  // Negative lower bounds clamp to zero before the ratio.
  EXPECT_DOUBLE_EQ(RelativeBoundGap(Interval{-1.0, 4.0}), 1.0);
  // Uninformative intervals say "the bounds said nothing".
  EXPECT_DOUBLE_EQ(RelativeBoundGap(Interval{0.0, kInf}), 1.0);
  EXPECT_DOUBLE_EQ(RelativeBoundGap(Interval{0.0, 0.0}), 1.0);
}

// ---------------------------------------------------------------------------
// X-macro stats + RunReport

TEST(ResolverStatsTest, FieldListMatchesXMacro) {
  const std::vector<std::string_view> names = ResolverStatsFieldNames();
  EXPECT_EQ(names.size(), kResolverStatsFieldCount);
  // Spot-check a few anchors across the list.
  EXPECT_EQ(names.front(), "oracle_calls");
  EXPECT_NE(std::find(names.begin(), names.end(), "decided_by_bounds"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "retry_backoff_seconds"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "certs_uncertified"),
            names.end());
}

TEST(ResolverStatsTest, ToStringMentionsEveryField) {
  ResolverStats stats;
  const std::string text = stats.ToString();
  for (const std::string_view name : ResolverStatsFieldNames()) {
    EXPECT_NE(text.find(std::string(name) + "="), std::string::npos)
        << "missing " << name;
  }
}

RunInfo TestRunInfo() {
  RunInfo info;
  info.command = "mst";
  info.dataset = "sf-poi-like";
  info.scheme = "tri";
  info.n = 64;
  info.seed = 42;
  info.trace_id = "test-trace";
  info.wall_seconds = 0.5;
  return info;
}

TEST(ResolverStatsTest, MergeSumsCountersAndMaxesGauges) {
  // Every field set to 1 on both sides: counters sum to 2, the two gauges
  // (tier id, peak sessions) keep 1.
  ResolverStats one;
#define METRICPROX_TEST_SET_ONE(type, name) one.name = static_cast<type>(1);
  METRICPROX_RESOLVER_STATS_FIELDS(METRICPROX_TEST_SET_ONE)
#undef METRICPROX_TEST_SET_ONE
  ResolverStats total = one;
  total += one;
#define METRICPROX_TEST_EXPECT_MERGED(type, name)                    \
  EXPECT_EQ(total.name,                                              \
            static_cast<type>(IsResolverStatsGauge(#name) ? 1 : 2)) \
      << #name;
  METRICPROX_RESOLVER_STATS_FIELDS(METRICPROX_TEST_EXPECT_MERGED)
#undef METRICPROX_TEST_EXPECT_MERGED
  EXPECT_TRUE(IsResolverStatsGauge("kernel_dispatch"));
  EXPECT_TRUE(IsResolverStatsGauge("sessions_active"));
  EXPECT_FALSE(IsResolverStatsGauge("oracle_calls"));
}

TEST(ResolverStatsTest, MergedSessionStatsKeepTheKernelTier) {
  // Four AVX2 sessions summed the documented way (per-session stats, then
  // the pool's peak) must still report avx2 and a peak of 4 — a summed
  // tier id (8) would be clamped to scalar by the report.
  ResolverStats session;
  session.kernel_dispatch = static_cast<uint64_t>(simd::Tier::kAvx2);
  session.oracle_calls = 5;
  ResolverStats total;
  for (int s = 0; s < 4; ++s) total += session;
  ResolverStats pool;
  pool.sessions_active = 4;
  total += pool;
  EXPECT_EQ(total.kernel_dispatch, static_cast<uint64_t>(simd::Tier::kAvx2));
  EXPECT_EQ(total.sessions_active, 4u);
  EXPECT_EQ(total.oracle_calls, 20u);
  const std::string text = RunReport(TestRunInfo(), total, nullptr).ToText();
  const size_t row = text.find("kernel dispatch");
  ASSERT_NE(row, std::string::npos);
  const std::string line = text.substr(row, text.find('\n', row) - row);
  EXPECT_NE(line.find("avx2"), std::string::npos) << line;
}

/// Extracts the member keys of the first `"stats":{...}` object. The stats
/// object holds only numeric values, so a brace scan suffices.
std::vector<std::string> StatsJsonKeys(const std::string& json) {
  const size_t start = json.find("\"stats\":{");
  EXPECT_NE(start, std::string::npos);
  const size_t open = start + std::string("\"stats\":{").size() - 1;
  const size_t close = json.find('}', open);
  EXPECT_NE(close, std::string::npos);
  const std::string body = json.substr(open + 1, close - open - 1);
  std::vector<std::string> keys;
  size_t pos = 0;
  while ((pos = body.find('"', pos)) != std::string::npos) {
    const size_t end = body.find('"', pos + 1);
    EXPECT_NE(end, std::string::npos);
    keys.push_back(body.substr(pos + 1, end - pos - 1));
    // Skip to the next member (the value never contains a quote).
    pos = body.find(',', end);
    if (pos == std::string::npos) break;
  }
  return keys;
}

TEST(RunReportTest, JsonStatsHasExactlyOneKeyPerXMacroField) {
  ResolverStats stats;
  stats.oracle_calls = 11;
  stats.decided_by_bounds = 7;
  stats.bounder_seconds = 0.25;
  const RunReport report(TestRunInfo(), stats, nullptr);
  const std::vector<std::string> keys = StatsJsonKeys(report.ToJson());
  const std::vector<std::string_view> names = ResolverStatsFieldNames();
  ASSERT_EQ(keys.size(), names.size());
  for (size_t k = 0; k < names.size(); ++k) {
    EXPECT_EQ(keys[k], names[k]) << "field order diverged at index " << k;
  }
}

TEST(RunReportTest, JsonCarriesRunMetadataAndSchema) {
  ResolverStats stats;
  stats.oracle_calls = 5;
  const RunReport report(TestRunInfo(), stats, nullptr);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\":\"metricprox-run-report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"command\":\"mst\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"test-trace\""), std::string::npos);
  EXPECT_NE(json.find("\"oracle_calls\":5"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\":{\"enabled\":false"),
            std::string::npos);
}

TEST(RunReportTest, JsonTelemetryHistogramsWhenAttached) {
  ResolverStats stats;
  Telemetry telemetry;
  telemetry.oracle_latency_seconds.Record(0.001);
  telemetry.oracle_latency_seconds.Record(0.003);
  telemetry.batch_size.Record(8.0);
  telemetry.bound_gap.Record(0.5);
  const RunReport report(TestRunInfo(), stats, &telemetry);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"telemetry\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"oracle_latency_seconds\":{\"count\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"batch_size\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bound_gap\":{\"count\":1"), std::string::npos);
  // Every histogram block carries the quantile keys.
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(RunReportTest, TextReproducesAccountingPipeTable) {
  ResolverStats stats;
  stats.oracle_calls = 10;
  stats.comparisons = 20;
  const RunReport report(TestRunInfo(), stats, nullptr);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("\nAccounting\n"), std::string::npos);
  // The store-roundtrip CI step parses `| oracle calls | N |` with awk -F'|'
  // and strips spaces, so the cells are space-padded and pipe-delimited.
  EXPECT_NE(text.find("oracle calls |"), std::string::npos);
  EXPECT_NE(text.find(" 10 |"), std::string::npos);
  EXPECT_NE(text.find("|---"), std::string::npos);
  // Telemetry rows only appear once histograms hold samples.
  EXPECT_EQ(text.find("oracle latency p50"), std::string::npos);

  Telemetry telemetry;
  telemetry.oracle_latency_seconds.Record(0.5);
  const RunReport traced(TestRunInfo(), stats, &telemetry);
  EXPECT_NE(traced.ToText().find("oracle latency p50"), std::string::npos);
}

TEST(RunReportTest, ConditionalRowGroupsFollowTheCounters) {
  ResolverStats stats;
  stats.oracle_retries = 2;
  RunInfo info = TestRunInfo();
  info.have_store = true;
  info.oracle_cost_seconds = 1.2;
  const RunReport report(info, stats, nullptr);
  const std::string text = report.ToText();
  EXPECT_NE(text.find("oracle retries"), std::string::npos);
  EXPECT_NE(text.find("store hits"), std::string::npos);
  EXPECT_NE(text.find("completion time (s)"), std::string::npos);
  EXPECT_EQ(text.find("certs emitted"), std::string::npos);
}

}  // namespace
}  // namespace metricprox
