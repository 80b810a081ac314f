// Tests for the Prometheus text exposition (obs/prometheus.h) and the
// histogram percentile estimate (obs/window.h).

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/window.h"

namespace hire {
namespace obs {
namespace {

HistogramSnapshot MakeHistogram(std::vector<double> bounds,
                                std::vector<uint64_t> counts_with_overflow,
                                double sum) {
  HistogramSnapshot snapshot;
  snapshot.upper_bounds = std::move(bounds);
  snapshot.bucket_counts = std::move(counts_with_overflow);
  for (uint64_t c : snapshot.bucket_counts) snapshot.count += c;
  snapshot.sum = sum;
  return snapshot;
}

/// Collects "<line>" strings starting with `prefix`.
std::vector<std::string> LinesWithPrefix(const std::string& text,
                                         const std::string& prefix) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.rfind(prefix, 0) == 0) lines.push_back(line);
  }
  return lines;
}

uint64_t TrailingInt(const std::string& line) {
  const size_t space = line.rfind(' ');
  return static_cast<uint64_t>(std::stoull(line.substr(space + 1)));
}

TEST(PrometheusNameTest, SanitizesDotsAndDashes) {
  EXPECT_EQ(PrometheusMetricName("serve.stage.forward_us.served"),
            "serve_stage_forward_us_served");
  EXPECT_EQ(PrometheusMetricName("cache-hit.rate"), "cache_hit_rate");
  EXPECT_EQ(PrometheusMetricName("already_legal:name"), "already_legal:name");
}

TEST(PrometheusNameTest, LeadingDigitAndEmpty) {
  EXPECT_EQ(PrometheusMetricName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusMetricName(""), "_");
}

TEST(PrometheusNameTest, EscapesLabelValues) {
  EXPECT_EQ(PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusTextTest, CountersGaugesAndHelpLines) {
  MetricsRegistry::Snapshot snapshot;
  snapshot.counters["serve.outcome.served"] = 42;
  snapshot.gauges["serve.uptime_seconds"] = 12.5;
  const std::string text = ToPrometheusText(snapshot);

  EXPECT_NE(text.find("# TYPE serve_outcome_served counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_outcome_served 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_uptime_seconds gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_uptime_seconds 12.5\n"), std::string::npos);
  // HELP carries the original dotted name so a scrape can be mapped back to
  // the JSON view.
  EXPECT_NE(text.find("# HELP serve_outcome_served exported from "
                      "serve.outcome.served\n"),
            std::string::npos);
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulativeAndMonotone) {
  MetricsRegistry::Snapshot snapshot;
  snapshot.histograms["lat.us"] =
      MakeHistogram({1.0, 2.0, 4.0, 8.0}, {5, 0, 3, 2, 1}, 37.5);
  const std::string text = ToPrometheusText(snapshot);

  const auto buckets = LinesWithPrefix(text, "lat_us_bucket{le=\"");
  ASSERT_EQ(buckets.size(), 5u);  // 4 finite bounds + +Inf
  uint64_t previous = 0;
  for (const std::string& line : buckets) {
    const uint64_t cumulative = TrailingInt(line);
    EXPECT_GE(cumulative, previous) << line;
    previous = cumulative;
  }
  // +Inf holds the whole population (overflow folded in) and equals _count.
  EXPECT_NE(buckets.back().find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(TrailingInt(buckets.back()), 11u);
  const auto count_lines = LinesWithPrefix(text, "lat_us_count ");
  ASSERT_EQ(count_lines.size(), 1u);
  EXPECT_EQ(TrailingInt(count_lines[0]), 11u);
  const auto sum_lines = LinesWithPrefix(text, "lat_us_sum ");
  ASSERT_EQ(sum_lines.size(), 1u);
  EXPECT_NE(sum_lines[0].find("37.5"), std::string::npos);
}

TEST(PrometheusTextTest, MatchesJsonView) {
  // The same snapshot rendered both ways must agree on every population
  // number: count, sum, and total observations.
  MetricsRegistry::Snapshot snapshot;
  snapshot.counters["requests.total"] = 7;
  snapshot.histograms["serve.request_latency_us"] =
      MakeHistogram({10.0, 100.0, 1000.0}, {2, 4, 8, 1}, 3210.0);
  const std::string prom = ToPrometheusText(snapshot);
  const std::string json = snapshot.ToJson();

  double json_count = 0.0;
  double json_sum = 0.0;
  const size_t hist = json.find("\"serve.request_latency_us\"");
  ASSERT_NE(hist, std::string::npos);
  const std::string hist_json = json.substr(hist);
  ASSERT_TRUE(FindJsonNumberField(hist_json, "count", &json_count));
  ASSERT_TRUE(FindJsonNumberField(hist_json, "sum", &json_sum));

  const auto count_lines =
      LinesWithPrefix(prom, "serve_request_latency_us_count ");
  ASSERT_EQ(count_lines.size(), 1u);
  EXPECT_EQ(static_cast<double>(TrailingInt(count_lines[0])), json_count);
  const auto sum_lines = LinesWithPrefix(prom, "serve_request_latency_us_sum ");
  ASSERT_EQ(sum_lines.size(), 1u);
  EXPECT_DOUBLE_EQ(std::stod(sum_lines[0].substr(sum_lines[0].rfind(' '))),
                   json_sum);

  const auto counter_lines = LinesWithPrefix(prom, "requests_total ");
  ASSERT_EQ(counter_lines.size(), 1u);
  double json_counter = 0.0;
  ASSERT_TRUE(FindJsonNumberField(json, "requests.total", &json_counter));
  EXPECT_EQ(static_cast<double>(TrailingInt(counter_lines[0])), json_counter);
}

TEST(PrometheusTextTest, RealRegistryHistogramRoundTrips) {
  // Exposition of a real registry histogram (exponential buckets + overflow)
  // keeps the +Inf bucket equal to _count.
  auto& registry = MetricsRegistry::Global();
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;
  Histogram* hist =
      registry.GetHistogram("prom_test.roundtrip_us", options);
  hist->Record(0.5);
  hist->Record(3.0);
  hist->Record(1e9);  // overflow
  const std::string text = ToPrometheusText(registry.Take());
  const auto buckets =
      LinesWithPrefix(text, "prom_test_roundtrip_us_bucket{le=\"+Inf\"}");
  ASSERT_EQ(buckets.size(), 1u);
  const auto counts = LinesWithPrefix(text, "prom_test_roundtrip_us_count ");
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(TrailingInt(buckets[0]), TrailingInt(counts[0]));
  EXPECT_GE(TrailingInt(counts[0]), 3u);
}

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  // 100 observations uniformly in bucket (0, 10].
  const HistogramSnapshot snapshot =
      MakeHistogram({10.0, 20.0}, {100, 0, 0}, 500.0);
  EXPECT_NEAR(HistogramQuantile(snapshot, 0.5), 5.0, 0.2);
  EXPECT_NEAR(HistogramQuantile(snapshot, 0.99), 9.9, 0.2);
  EXPECT_EQ(HistogramQuantile(MakeHistogram({1.0}, {0, 0}, 0.0), 0.5), 0.0);
}

TEST(HistogramQuantileTest, OverflowSaturatesAtLastBound) {
  const HistogramSnapshot snapshot =
      MakeHistogram({1.0, 2.0}, {1, 1, 8}, 100.0);
  EXPECT_EQ(HistogramQuantile(snapshot, 0.99), 2.0);
}

}  // namespace
}  // namespace obs
}  // namespace hire
