#ifndef HIRE_SERVE_HTTP_CLIENT_H_
#define HIRE_SERVE_HTTP_CLIENT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hire {
namespace serve {

/// Minimal blocking HTTP/1.1 client for loopback, the counterpart of
/// HttpEventLoop: one persistent keep-alive connection per instance, so a
/// closed-loop load-generator client pays the TCP handshake once. Not
/// thread-safe; use one instance per thread.
class HttpClient {
 public:
  struct Result {
    bool ok = false;     // transport-level success (a 500 is still ok=true)
    int status = 0;
    std::string body;
    /// Response headers, names lower-cased.
    std::map<std::string, std::string> headers;
    std::string error;   // set when !ok
    /// The socket timeout expired (distinct from connection-refused or a
    /// reset: the server is reachable but did not answer in time). The
    /// error string carries a "timeout:" prefix too.
    bool timed_out = false;
    /// The reply did not match the request one for one: bytes past its
    /// Content-Length, or bytes that arrived on the idle keep-alive
    /// connection before the request was sent (a server that answered an
    /// earlier request twice). The connection is dropped and the request
    /// is not retried. The error string carries a "framing error:" prefix.
    bool framing_error = false;
  };

  /// `timeout_ms` bounds every socket send and receive (SO_SNDTIMEO /
  /// SO_RCVTIMEO); an expiry surfaces as Result.timed_out.
  explicit HttpClient(int port, const std::string& host = "127.0.0.1",
                      int timeout_ms = 30000);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Issues one request. A stale recycled keep-alive connection is detected
  /// and replaced before any bytes are sent (safe for every method); after a
  /// mid-exchange failure, only idempotent GETs are retried on a fresh
  /// connection — a POST may already have been processed server-side. A
  /// timed-out GET is not retried either (the server is alive but slow;
  /// retrying would just double the wait), nor is a framing error (the
  /// server answered, but not one reply per request).
  Result Request(
      const std::string& method, const std::string& path,
      const std::string& body = "",
      const std::vector<std::pair<std::string, std::string>>& extra_headers =
          {});

  Result Get(const std::string& path) { return Request("GET", path); }
  Result Post(const std::string& path, const std::string& body) {
    return Request("POST", path, body);
  }

 private:
  bool EnsureConnected(std::string* error);
  void Disconnect();
  Result RequestOnce(
      const std::string& method, const std::string& path,
      const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& extra_headers);

  const std::string host_;
  const int port_;
  const int timeout_ms_;
  int fd_ = -1;
};

}  // namespace serve
}  // namespace hire

#endif  // HIRE_SERVE_HTTP_CLIENT_H_
