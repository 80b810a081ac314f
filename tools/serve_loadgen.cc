// serve_loadgen — drill client for the HIRE rating server.
//
// Modes (--mode is required):
//   drive  Closed-loop clients against an already-running server
//          (--port). Exits non-zero if any request fails — the smoke test
//          uses this concurrently with a /reload to prove zero-downtime
//          hot-swap.
//   probe  One request (--method/--path/--body) against --port; prints the
//          response body; exit 0 iff HTTP 200. Lets shell tests speak to
//          the server without curl.
//
// Example:
//   hire_cli serve --profile=movielens --model=/tmp/m.bin --port=8080 &
//   serve_loadgen --mode=drive --port=8080 --clients=4
//       --requests-per-client=100 --max-user=30 --max-item=25
//   serve_loadgen --mode=probe --port=8080 --path=/healthz

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/http_client.h"
#include "utils/check.h"
#include "utils/flags.h"

namespace {

using namespace hire;

constexpr char kUsage[] =
    R"(serve_loadgen --mode=<drive|probe> [flags]

drive:  --port <int> --clients <int> --requests-per-client <int>
        --max-user <int>           users drawn round-robin from [0, max-user)
        --max-item <int>           item ids drawn from [0, max-item) (64)
        --items-per-request <int>  (4)
        --deadline-ms <int>        send X-Deadline-Ms on every request (0 =
                                   none)
        --allow-status <csv>       extra statuses besides 200 that do not
                                   count as failures (e.g. 503,504)
        --allow-transport-errors   connection resets/timeouts do not count
                                   as failures (chaos drills)
probe:  --port <int> --method <GET|POST> --path </healthz> --body <json>
        --deadline-ms <int>        send X-Deadline-Ms (0 = none)
        --timeout-ms <int>         client socket timeout (30000)

After a 503, a drive client waits out the response's Retry-After, capped
at 250 ms so drills stay short, before its next request.
drive prints "DRIVE_STATUS 200=n 503=n ... degraded=n transport_errors=n"
for scripts asserting on the status mix.
)";

struct DriveResult {
  double wall_seconds = 0.0;
  int64_t requests = 0;
  int64_t failures = 0;
  std::map<int, int64_t> status_counts;  // HTTP status -> responses
  int64_t degraded = 0;                  // 200s tagged "degraded":true
  int64_t transport_errors = 0;          // no HTTP response at all
  std::vector<double> latencies_us;  // successful requests only

  double throughput_rps() const {
    return wall_seconds > 0 ? static_cast<double>(requests - failures) /
                                  wall_seconds
                            : 0.0;
  }
};

/// What Drive tolerates without counting a failure.
struct DriveOptions {
  int64_t deadline_ms = 0;           // X-Deadline-Ms header (0 = none)
  std::set<int> allow_status;        // besides 200 (e.g. {503, 504})
  bool allow_transport_errors = false;
};

/// Cap on the Retry-After wait, so an overload drill stays time-bounded.
constexpr std::chrono::milliseconds kMaxBackoff{250};

/// How long a client waits after a 503: the response's Retry-After (whole
/// seconds, RFC 9110), capped at kMaxBackoff. No or malformed hint, no wait.
std::chrono::milliseconds BackoffAfter503(
    const serve::HttpClient::Result& response) {
  const auto hint = response.headers.find("retry-after");
  if (hint == response.headers.end()) return std::chrono::milliseconds(0);
  char* end = nullptr;
  const long long seconds = std::strtoll(hint->second.c_str(), &end, 10);
  if (end == hint->second.c_str() || *end != '\0' || seconds < 0) {
    return std::chrono::milliseconds(0);
  }
  // Clamp before scaling so a huge hint cannot overflow.
  const long long capped_seconds =
      std::min<long long>(seconds, kMaxBackoff.count() / 1000 + 1);
  return std::min(std::chrono::milliseconds(capped_seconds * 1000),
                  kMaxBackoff);
}

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted.size()) - 1,
                       q * static_cast<double>(sorted.size())));
  return sorted[rank];
}

/// Runs `clients` closed-loop HTTP clients against 127.0.0.1:`port`, each
/// issuing `requests_each` POST /predict calls. Users are assigned
/// round-robin from [0, num_users): pass num_users >= clients*requests_each
/// for an all-cold run, smaller to force reuse.
DriveResult Drive(int port, int clients, int64_t requests_each,
                  int64_t num_users, int64_t items_per_request,
                  int64_t num_items, const DriveOptions& options) {
  DriveResult result;
  result.requests = static_cast<int64_t>(clients) * requests_each;

  std::mutex merge_mutex;
  std::atomic<int64_t> failures{0};

  std::vector<std::pair<std::string, std::string>> extra_headers;
  if (options.deadline_ms > 0) {
    extra_headers.push_back(
        {"X-Deadline-Ms", std::to_string(options.deadline_ms)});
  }

  const auto wall_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::HttpClient client(port);
        std::vector<double> latencies;
        latencies.reserve(static_cast<size_t>(requests_each));
        std::map<int, int64_t> statuses;
        int64_t degraded = 0;
        int64_t transport_errors = 0;
        for (int64_t i = 0; i < requests_each; ++i) {
          const int64_t user =
              (static_cast<int64_t>(c) * requests_each + i) % num_users;
          std::string body = "{\"user\":" + std::to_string(user) +
                             ",\"items\":[";
          for (int64_t j = 0; j < items_per_request; ++j) {
            if (j > 0) body += ",";
            body += std::to_string((user * 13 + j * 7) % num_items);
          }
          body += "]}";
          const auto start = std::chrono::steady_clock::now();
          const serve::HttpClient::Result response =
              client.Request("POST", "/predict", body, extra_headers);
          const double micros =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (!response.ok) {
            ++transport_errors;
            if (!options.allow_transport_errors) failures.fetch_add(1);
            continue;
          }
          ++statuses[response.status];
          if (response.status == 503) {
            // A shed client honours the server's hint instead of resending
            // at once, so an overload lasts as long as the drive does.
            std::this_thread::sleep_for(BackoffAfter503(response));
          }
          if (response.status == 200) {
            latencies.push_back(micros);
            if (response.body.find("\"degraded\":true") != std::string::npos) {
              ++degraded;
            }
          } else if (options.allow_status.count(response.status) == 0) {
            failures.fetch_add(1);
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        result.latencies_us.insert(result.latencies_us.end(),
                                   latencies.begin(), latencies.end());
        for (const auto& [status, count] : statuses) {
          result.status_counts[status] += count;
        }
        result.degraded += degraded;
        result.transport_errors += transport_errors;
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.failures = failures.load();
  std::sort(result.latencies_us.begin(), result.latencies_us.end());
  return result;
}

/// Machine-parseable status mix, e.g.
/// "DRIVE_STATUS 200=80 503=12 504=8 degraded=5 transport_errors=0".
void PrintDriveStatus(const DriveResult& result) {
  std::cout << "DRIVE_STATUS";
  for (const auto& [status, count] : result.status_counts) {
    std::cout << " " << status << "=" << count;
  }
  std::cout << " degraded=" << result.degraded
            << " transport_errors=" << result.transport_errors << "\n";
}

int RunDrive(const Flags& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  HIRE_CHECK_GT(port, 0) << "--port is required for drive";
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const int64_t requests_each = flags.GetInt("requests-per-client", 25);
  const int64_t max_user = flags.GetInt("max-user", 64);
  const int64_t items_per_request = flags.GetInt("items-per-request", 4);
  // Item ids are drawn from [0, max-item); keep it inside the server's item
  // universe or requests will (correctly) fail with out-of-range errors.
  const int64_t max_item = flags.GetInt("max-item", 64);

  DriveOptions options;
  options.deadline_ms = flags.GetInt("deadline-ms", 0);
  options.allow_transport_errors =
      flags.GetBool("allow-transport-errors", false);
  const std::string allow = flags.GetString("allow-status", "");
  size_t pos = 0;
  while (pos < allow.size()) {
    size_t comma = allow.find(',', pos);
    if (comma == std::string::npos) comma = allow.size();
    const std::string token = allow.substr(pos, comma - pos);
    if (!token.empty()) options.allow_status.insert(std::atoi(token.c_str()));
    pos = comma + 1;
  }

  const DriveResult result = Drive(port, clients, requests_each, max_user,
                                  items_per_request, max_item, options);
  std::cout << "drive: " << (result.requests - result.failures) << "/"
            << result.requests << " ok, "
            << static_cast<int64_t>(result.throughput_rps()) << " rps, p50 "
            << Percentile(result.latencies_us, 0.5) << "us\n";
  PrintDriveStatus(result);
  if (result.failures > 0) {
    std::cerr << "error: " << result.failures << " failed request(s)\n";
    return 1;
  }
  return 0;
}

int RunProbe(const Flags& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0));
  HIRE_CHECK_GT(port, 0) << "--port is required for probe";
  serve::HttpClient client(port, "127.0.0.1",
                           static_cast<int>(flags.GetInt("timeout-ms",
                                                         30000)));
  std::vector<std::pair<std::string, std::string>> extra_headers;
  const int64_t deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms > 0) {
    extra_headers.push_back({"X-Deadline-Ms", std::to_string(deadline_ms)});
  }
  const serve::HttpClient::Result result =
      client.Request(flags.GetString("method", "GET"),
                     flags.GetString("path", "/healthz"),
                     flags.GetString("body", ""), extra_headers);
  if (!result.ok) {
    std::cerr << "error: " << result.error << "\n";
    return 1;
  }
  // Scripts grep the status (and Retry-After when present) to assert on
  // non-200 outcomes without parsing headers themselves.
  std::cout << "PROBE_STATUS " << result.status;
  const auto retry_after = result.headers.find("retry-after");
  if (retry_after != result.headers.end()) {
    std::cout << " retry_after=" << retry_after->second;
  }
  std::cout << "\n" << result.body << "\n";
  return result.status == 200 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Parse skips argv[0] itself (there is no subcommand to strip here).
    const Flags flags = Flags::Parse(argc, argv);
    const std::string mode = flags.GetString("mode", "");
    if (mode == "drive") return RunDrive(flags);
    if (mode == "probe") return RunProbe(flags);
    std::cerr << (mode.empty() ? "--mode is required"
                               : "unknown --mode '" + mode + "'")
              << "\n"
              << kUsage;
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
