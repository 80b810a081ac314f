// serve_monitor — live scraper / SLO gate for the HIRE rating server.
//
// Polls GET /metrics (JSON) on an interval, differences consecutive scrapes,
// and prints one table row per window: QPS, p50/p95/p99 request latency
// (from the serve.request_latency_us histogram delta), the outcome mix,
// mean batch occupancy, and context-cache hit rate. Window durations come
// from the server's own ts_unix_ms snapshot stamp, so a slow scrape does not
// skew the rates.
//
// With --slo the aggregate across the whole run is checked against a
// comma-separated list of `metric op value` expressions and the process
// exits non-zero on any violation, which makes it usable as a release gate:
//
//   serve_monitor --port=8080 --scrapes=10 --interval-ms=1000
//       --slo="p99<50ms,degraded<1%,qps>100"
//
// Metrics: p50/p95/p99 (request latency; value suffix us|ms|s, default us),
//          qps, degraded/shed/expired/failed (outcome shares; suffix % or a
//          plain fraction), cache_hit (share), balance (hottest shard's
//          routed traffic over a uniform spread; 1.0 = even).
// Ops: < <= > >=
//
// Against a multi-shard server each row gains a second line with the
// per-shard routed split for that window and its max/uniform ratio.
//
// Prints "SLO_PASS <expr> actual=<v>" / "SLO_FAIL <expr> actual=<v>" lines
// for scripts, and exits 0 (all pass), 1 (violation), 2 (usage/scrape
// error).

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "serve/http_client.h"
#include "utils/flags.h"

namespace {

using namespace hire;

constexpr char kUsage[] =
    R"(serve_monitor --port=<int> [flags]

  --port <int>         server port on 127.0.0.1 (required)
  --interval-ms <int>  time between scrapes (1000)
  --scrapes <int>      windows to observe after the baseline scrape (5)
  --slo <exprs>        comma-separated "metric op value" checks evaluated on
                       the aggregate window, e.g. "p99<50ms,degraded<1%"
  --timeout-ms <int>   per-scrape HTTP timeout (5000)
)";

/// One parsed /metrics scrape (JSON view).
struct Scrape {
  bool ok = false;
  double ts_ms = 0.0;      // server snapshot stamp
  double uptime_s = 0.0;
  double outcomes[5] = {0, 0, 0, 0, 0};  // served/degraded/shed/expired/failed
  double batches = 0.0;
  double batched_users = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  std::vector<double> shard_routed;  // serve.shard.<i>.routed, per shard
  obs::HistogramSnapshot latency;

  double total_requests() const {
    double total = 0.0;
    for (double o : outcomes) total += o;
    return total;
  }
};

const char* const kOutcomeKeys[5] = {
    "serve.outcome.served", "serve.outcome.degraded", "serve.outcome.shed",
    "serve.outcome.expired", "serve.outcome.failed"};

/// Textually parses one named histogram out of a /metrics JSON body:
/// "name":{"count":N,"sum":S,"buckets":[[bound,count],...],"overflow":M}
bool ParseHistogram(const std::string& body, const std::string& name,
                    obs::HistogramSnapshot* out) {
  const size_t key = body.find("\"" + name + "\":{");
  if (key == std::string::npos) return false;
  const size_t open = body.find('{', key);
  const size_t close = body.find('}', open);
  if (close == std::string::npos) return false;
  const std::string object = body.substr(open, close - open + 1);

  double count = 0.0;
  double sum = 0.0;
  double overflow = 0.0;
  if (!obs::FindJsonNumberField(object, "count", &count) ||
      !obs::FindJsonNumberField(object, "sum", &sum) ||
      !obs::FindJsonNumberField(object, "overflow", &overflow)) {
    return false;
  }
  out->count = static_cast<uint64_t>(count);
  out->sum = sum;
  out->upper_bounds.clear();
  out->bucket_counts.clear();

  size_t pos = object.find("\"buckets\":[");
  if (pos == std::string::npos) return false;
  pos += 11;
  while (pos < object.size() && object[pos] != ']') {
    if (object[pos] != '[') { ++pos; continue; }
    char* end = nullptr;
    const double bound = std::strtod(object.c_str() + pos + 1, &end);
    if (end == nullptr || *end != ',') return false;
    const double bucket = std::strtod(end + 1, &end);
    if (end == nullptr || *end != ']') return false;
    out->upper_bounds.push_back(bound);
    out->bucket_counts.push_back(static_cast<uint64_t>(bucket));
    pos = static_cast<size_t>(end - object.c_str()) + 1;
  }
  // The registry's snapshot layout keeps overflow as a trailing bucket.
  out->bucket_counts.push_back(static_cast<uint64_t>(overflow));
  return true;
}

Scrape ParseScrape(const std::string& body) {
  Scrape scrape;
  obs::FindJsonNumberField(body, "ts_unix_ms", &scrape.ts_ms);
  obs::FindJsonNumberField(body, "uptime_seconds", &scrape.uptime_s);
  for (int i = 0; i < 5; ++i) {
    obs::FindJsonNumberField(body, kOutcomeKeys[i], &scrape.outcomes[i]);
  }
  obs::FindJsonNumberField(body, "serve.batches", &scrape.batches);
  obs::FindJsonNumberField(body, "serve.batched_users",
                           &scrape.batched_users);
  obs::FindJsonNumberField(body, "serve.context_cache.hits",
                           &scrape.cache_hits);
  obs::FindJsonNumberField(body, "serve.context_cache.misses",
                           &scrape.cache_misses);
  double num_shards = 0.0;
  obs::FindJsonNumberField(body, "serve.shards", &num_shards);
  for (int shard = 0; shard < static_cast<int>(num_shards); ++shard) {
    double routed = 0.0;
    obs::FindJsonNumberField(
        body, "serve.shard." + std::to_string(shard) + ".routed", &routed);
    scrape.shard_routed.push_back(routed);
  }
  scrape.ok =
      ParseHistogram(body, "serve.request_latency_us", &scrape.latency);
  return scrape;
}

/// Derived statistics of the window between two scrapes.
struct WindowStats {
  double seconds = 0.0;
  double requests = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double outcome_delta[5] = {0, 0, 0, 0, 0};
  double batch_occupancy = 0.0;  // mean users per forward
  double cache_hit_rate = 0.0;
  std::vector<double> shard_routed_delta;  // per-shard routed, this window

  double share(int outcome) const {
    return requests > 0 ? outcome_delta[outcome] / requests : 0.0;
  }

  /// Hottest shard's share of routed traffic relative to a perfectly even
  /// spread (1.0 = uniform; 2.0 = one shard saw twice its fair share).
  double shard_balance() const {
    if (shard_routed_delta.size() < 2) return 1.0;
    double total = 0.0;
    double hottest = 0.0;
    for (double routed : shard_routed_delta) {
      total += routed;
      hottest = std::max(hottest, routed);
    }
    if (total <= 0.0) return 1.0;
    return hottest / (total / static_cast<double>(shard_routed_delta.size()));
  }
};

WindowStats Diff(const Scrape& before, const Scrape& after) {
  WindowStats stats;
  stats.seconds = (after.ts_ms - before.ts_ms) / 1000.0;
  for (int i = 0; i < 5; ++i) {
    stats.outcome_delta[i] = after.outcomes[i] - before.outcomes[i];
    stats.requests += stats.outcome_delta[i];
  }
  stats.qps = stats.seconds > 0 ? stats.requests / stats.seconds : 0.0;
  if (before.latency.upper_bounds == after.latency.upper_bounds) {
    const obs::HistogramSnapshot delta = after.latency.Delta(before.latency);
    if (delta.count > 0) {
      stats.p50_us = obs::HistogramQuantile(delta, 0.50);
      stats.p95_us = obs::HistogramQuantile(delta, 0.95);
      stats.p99_us = obs::HistogramQuantile(delta, 0.99);
    }
  }
  const double batches = after.batches - before.batches;
  const double batched_users = after.batched_users - before.batched_users;
  stats.batch_occupancy = batches > 0 ? batched_users / batches : 0.0;
  const double hits = after.cache_hits - before.cache_hits;
  const double misses = after.cache_misses - before.cache_misses;
  stats.cache_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  if (before.shard_routed.size() == after.shard_routed.size()) {
    for (size_t i = 0; i < after.shard_routed.size(); ++i) {
      stats.shard_routed_delta.push_back(after.shard_routed[i] -
                                         before.shard_routed[i]);
    }
  }
  return stats;
}

/// One extra line under a row for multi-shard servers: the per-shard routed
/// split this window and how far the hottest shard sits above uniform.
void PrintShardBalance(const WindowStats& stats) {
  if (stats.shard_routed_delta.size() < 2) return;
  std::printf("  shards routed=[");
  for (size_t i = 0; i < stats.shard_routed_delta.size(); ++i) {
    std::printf("%s%.0f", i == 0 ? "" : ",", stats.shard_routed_delta[i]);
  }
  std::printf("] max/uniform=%.2f\n", stats.shard_balance());
  std::fflush(stdout);
}

void PrintHeader() {
  std::printf("%-8s %8s %9s %9s %9s %7s %7s %5s %5s %5s %6s %6s\n", "window",
              "qps", "p50_ms", "p95_ms", "p99_ms", "served", "degr", "shed",
              "exp", "fail", "batch", "cache");
}

void PrintRow(const std::string& label, const WindowStats& stats) {
  std::printf(
      "%-8s %8.1f %9.2f %9.2f %9.2f %7.0f %7.0f %5.0f %5.0f %5.0f %6.2f "
      "%5.0f%%\n",
      label.c_str(), stats.qps, stats.p50_us / 1000.0, stats.p95_us / 1000.0,
      stats.p99_us / 1000.0, stats.outcome_delta[0], stats.outcome_delta[1],
      stats.outcome_delta[2], stats.outcome_delta[3], stats.outcome_delta[4],
      stats.batch_occupancy, stats.cache_hit_rate * 100.0);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// SLO expressions
// ---------------------------------------------------------------------------

struct SloCheck {
  std::string text;    // original expression, for reporting
  std::string metric;  // canonical name
  bool less = true;    // direction of the bound
  bool or_equal = false;
  double bound = 0.0;  // canonical units (us for latencies, fraction for
                       // shares)
};

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

bool IsLatencyMetric(const std::string& metric) {
  return metric == "p50" || metric == "p95" || metric == "p99";
}

/// Parses one "metric op value" expression. Latency values accept us/ms/s
/// suffixes (default us); share values accept a % suffix (else a fraction).
bool ParseSloCheck(const std::string& expr, SloCheck* out) {
  out->text = Trim(expr);
  const size_t op = out->text.find_first_of("<>");
  if (op == std::string::npos || op == 0) return false;
  std::string metric = Trim(out->text.substr(0, op));
  out->less = out->text[op] == '<';
  size_t value_begin = op + 1;
  out->or_equal = value_begin < out->text.size() &&
                  out->text[value_begin] == '=';
  if (out->or_equal) ++value_begin;
  std::string value = Trim(out->text.substr(value_begin));
  if (metric.size() > 3 && metric.compare(metric.size() - 3, 3, "_us") == 0) {
    metric.resize(metric.size() - 3);  // p99_us -> p99
  }
  if (metric.size() > 6 &&
      metric.compare(metric.size() - 6, 6, "_share") == 0) {
    metric.resize(metric.size() - 6);  // degraded_share -> degraded
  }
  out->metric = metric;

  double scale = 1.0;
  if (!value.empty() && value.back() == '%') {
    scale = 0.01;
    value.pop_back();
  } else if (value.size() > 2 &&
             value.compare(value.size() - 2, 2, "ms") == 0) {
    scale = 1000.0;
    value.resize(value.size() - 2);
  } else if (value.size() > 2 &&
             value.compare(value.size() - 2, 2, "us") == 0) {
    value.resize(value.size() - 2);
  } else if (value.size() > 1 && value.back() == 's' &&
             IsLatencyMetric(metric)) {
    scale = 1000.0 * 1000.0;
    value.pop_back();
  }
  char* end = nullptr;
  out->bound = std::strtod(value.c_str(), &end) * scale;
  if (end == nullptr || *Trim(end).c_str() != '\0') return false;

  return IsLatencyMetric(metric) || metric == "qps" || metric == "served" ||
         metric == "degraded" || metric == "shed" || metric == "expired" ||
         metric == "failed" || metric == "cache_hit" || metric == "balance";
}

double SloActual(const SloCheck& check, const WindowStats& stats) {
  if (check.metric == "p50") return stats.p50_us;
  if (check.metric == "p95") return stats.p95_us;
  if (check.metric == "p99") return stats.p99_us;
  if (check.metric == "qps") return stats.qps;
  if (check.metric == "served") return stats.share(0);
  if (check.metric == "degraded") return stats.share(1);
  if (check.metric == "shed") return stats.share(2);
  if (check.metric == "expired") return stats.share(3);
  if (check.metric == "failed") return stats.share(4);
  if (check.metric == "cache_hit") return stats.cache_hit_rate;
  if (check.metric == "balance") return stats.shard_balance();
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::Parse(argc, argv);
    const int port = static_cast<int>(flags.GetInt("port", 0));
    if (port <= 0) {
      std::cerr << "error: --port is required\n" << kUsage;
      return 2;
    }
    const int64_t interval_ms = flags.GetInt("interval-ms", 1000);
    const int64_t scrapes = flags.GetInt("scrapes", 5);
    const std::string slo_text = flags.GetString("slo", "");

    std::vector<SloCheck> checks;
    size_t pos = 0;
    while (pos <= slo_text.size() && !slo_text.empty()) {
      size_t comma = slo_text.find(',', pos);
      if (comma == std::string::npos) comma = slo_text.size();
      const std::string expr = Trim(slo_text.substr(pos, comma - pos));
      pos = comma + 1;
      if (expr.empty()) continue;
      SloCheck check;
      if (!ParseSloCheck(expr, &check)) {
        std::cerr << "error: bad SLO expression '" << expr << "'\n" << kUsage;
        return 2;
      }
      checks.push_back(std::move(check));
      if (comma == slo_text.size()) break;
    }

    serve::HttpClient client(
        port, "127.0.0.1", static_cast<int>(flags.GetInt("timeout-ms", 5000)));
    const auto scrape_once = [&client](Scrape* out) {
      const serve::HttpClient::Result result = client.Get("/metrics");
      if (!result.ok || result.status != 200) {
        std::cerr << "error: scrape failed: "
                  << (result.ok ? "HTTP " + std::to_string(result.status)
                                : result.error)
                  << "\n";
        return false;
      }
      *out = ParseScrape(result.body);
      if (!out->ok) {
        std::cerr << "error: /metrics response missing "
                     "serve.request_latency_us\n";
        return false;
      }
      return true;
    };

    Scrape baseline;
    if (!scrape_once(&baseline)) return 2;
    std::printf("monitoring 127.0.0.1:%d (uptime %.1fs), %lld x %lldms\n",
                port, baseline.uptime_s,
                static_cast<long long>(scrapes),
                static_cast<long long>(interval_ms));
    PrintHeader();

    Scrape previous = baseline;
    Scrape last = baseline;
    for (int64_t i = 0; i < scrapes; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (!scrape_once(&last)) return 2;
      const WindowStats window = Diff(previous, last);
      std::string label = "w";
      label += std::to_string(i + 1);
      PrintRow(label, window);
      PrintShardBalance(window);
      previous = last;
    }

    const WindowStats aggregate = Diff(baseline, last);
    PrintRow("total", aggregate);
    PrintShardBalance(aggregate);
    if (aggregate.requests <= 0) {
      std::cout << "warning: no requests observed; latency SLOs are vacuous\n";
    }

    int violations = 0;
    for (const SloCheck& check : checks) {
      const double actual = SloActual(check, aggregate);
      const bool pass = check.less
                            ? (check.or_equal ? actual <= check.bound
                                              : actual < check.bound)
                            : (check.or_equal ? actual >= check.bound
                                              : actual > check.bound);
      std::cout << (pass ? "SLO_PASS " : "SLO_FAIL ") << check.text
                << " actual=" << actual << "\n";
      if (!pass) ++violations;
    }
    if (violations > 0) {
      std::cerr << "error: " << violations << " SLO violation(s)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
