#ifndef HIRE_SERVE_EVENT_LOOP_H_
#define HIRE_SERVE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hire {
namespace serve {

struct HttpRequest {
  std::string method;  // upper-case: "GET", "POST", ...
  std::string path;    // target without query string
  std::string query;   // raw query string after '?', "" when absent
  std::string body;
  /// All request headers, names lower-cased (values as sent).
  std::map<std::string, std::string> headers;
};

struct HttpResponse {
  HttpResponse() = default;
  HttpResponse(int s, std::string ct, std::string b,
               std::vector<std::pair<std::string, std::string>> h = {})
      : status(s),
        content_type(std::move(ct)),
        body(std::move(b)),
        headers(std::move(h)) {}

  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers (e.g. {"Retry-After", "1"}).
  std::vector<std::pair<std::string, std::string>> headers;
  /// Invoked after the response bytes reach the socket, with the wall time
  /// the write took in microseconds. Handlers use it to attribute the
  /// socket-write stage of a request; never called when the write fails or
  /// the connection is dropped first.
  std::function<void(double write_micros)> on_written;
};

/// Completion callback handed to a route handler. Safe to invoke from any
/// thread, at any time after the handler was entered (including
/// synchronously inside it). Only the first invocation counts; later ones
/// and invocations after the loop stopped are dropped (the connection is
/// already answered or gone).
using HttpDone = std::function<void(HttpResponse)>;

/// Route handler. It runs on the loop thread, so it must return quickly:
/// cheap routes answer through `done` before returning, and routes that
/// wait on backend work (e.g. /predict waiting on its shard's micro-batch)
/// hand `done` to that backend and return at once. A handler that throws
/// is answered 500 and counted in "serve.http.handler_errors".
using HttpHandler = std::function<void(const HttpRequest&, HttpDone done)>;

/// Route table keyed by exact (method, path).
using HttpRoutes =
    std::map<std::pair<std::string, std::string>, HttpHandler>;

/// Connection-hygiene budgets. Both defend the loop from stalled clients
/// (slow-loris): a connection that sends nothing is closed after the idle
/// budget, and one that dribbles a request without finishing it gets a 408
/// after the read budget.
struct HttpServerOptions {
  /// Max time a keep-alive connection may sit idle between requests before
  /// the server closes it.
  int idle_timeout_ms = 5000;
  /// Max time from the first byte of a request until its head and body are
  /// fully received; breaching it returns 408 and closes the connection.
  int header_timeout_ms = 2000;
  /// Upper bound on concurrently open connections; an accept past the bound
  /// is answered 503 + Retry-After and closed immediately
  /// ("serve.http.over_capacity"). 0 = unbounded.
  int max_connections = 0;
};

/// One readiness event from a Poller backend.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Minimal readiness-notification abstraction: epoll on Linux, a poll(2) set
/// everywhere else (or when HIRE_SERVE_EVENT_BACKEND=poll forces it, which
/// the tests use to exercise both backends on one machine). Level-triggered
/// on both backends, so a handler that drains only part of a socket's data
/// is re-notified on the next wait.
class Poller {
 public:
  virtual ~Poller() = default;
  virtual void Add(int fd, bool want_read, bool want_write) = 0;
  virtual void Update(int fd, bool want_read, bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  /// Blocks up to `timeout_ms`; appends ready fds to `*events` (cleared
  /// first). Returns the number of ready fds, 0 on timeout.
  virtual int Wait(int timeout_ms, std::vector<PollEvent>* events) = 0;
  virtual const char* name() const = 0;

  /// Chooses the backend: epoll on Linux unless HIRE_SERVE_EVENT_BACKEND=poll
  /// asks for the portable poll(2) set.
  static std::unique_ptr<Poller> Create();
};

/// Minimal dependency-free HTTP/1.1 server on POSIX sockets, loopback only:
/// request line + headers, Content-Length bodies, keep-alive. No TLS, no
/// chunked transfer, no multipart.
///
/// One loop thread owns every connection fd and multiplexes them through a
/// Poller. It parses each request and calls its route handler inline; the
/// handler's `done` may fire later from any thread, and finished responses
/// come back to the loop over a completion queue + self-pipe wakeup. So
/// requests in flight are bounded by backend admission control, and a
/// connection costs a buffer rather than a thread, which is what lets one
/// process hold thousands of them.
///
/// Protocol: keep-alive + pipelining, 400 on malformed heads, 404 for an
/// unknown path and 405 for a known path with the wrong method, 408 + close
/// when a started request breaches `header_timeout_ms` (slow-loris), silent
/// close + "serve.http.idle_closed" when an idle keep-alive connection
/// outlives `idle_timeout_ms`, injected connection resets dropped after
/// dispatch. When `max_connections` > 0, an accept beyond the bound is
/// answered 503 + Retry-After and closed immediately
/// ("serve.http.over_capacity") instead of growing the fd table without
/// limit.
class HttpEventLoop {
 public:
  /// `port` 0 picks an ephemeral port; read it back with port() after
  /// Start(). `routes` is the finished route table (the loop never mutates
  /// it).
  HttpEventLoop(int port, HttpServerOptions options, HttpRoutes routes);
  ~HttpEventLoop();

  HttpEventLoop(const HttpEventLoop&) = delete;
  HttpEventLoop& operator=(const HttpEventLoop&) = delete;

  /// Binds 127.0.0.1, listens, spawns the loop thread. Throws on bind/listen
  /// failure.
  void Start();

  /// Stops accepting, waits for in-flight requests to be answered and
  /// written, and joins the loop. Idempotent.
  void Stop();

  int port() const { return port_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class ConnState { kReading, kHandling, kWriting };

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    ConnState state = ConnState::kReading;
    std::string in;           // bytes read, may hold pipelined requests
    std::string out;          // rendered response being written
    size_t out_sent = 0;
    bool request_started = false;  // first byte of a request arrived
    bool keep_alive_next = true;   // keep-alive after the in-flight response
    bool close_after_write = false;
    Clock::time_point deadline;    // idle/read/write budget, state-dependent
    Clock::time_point write_start;
    std::function<void(double)> on_written;
  };

  struct Completion {
    uint64_t conn_id = 0;
    HttpResponse response;
  };

  /// Finished responses en route back to the loop thread. Shared (not a
  /// plain member) because `done` callbacks can outlive the loop: a request
  /// parked in a backend queue may resolve after the loop — or the whole
  /// HttpEventLoop — is gone. Callbacks own the sink via shared_ptr
  /// and check `wake_fd` under the mutex; once Stop() set it to -1 a late
  /// completion is dropped, which is correct because every connection was
  /// already closed.
  struct CompletionSink {
    std::mutex mutex;
    std::vector<Completion> completions;
    int wake_fd = -1;  // self-pipe write end; -1 once the loop is unreachable
  };

  /// Hands a completion to the loop thread (and wakes it); drops it when
  /// the loop is gone. Thread-safe.
  static void PushCompletion(const std::shared_ptr<CompletionSink>& sink,
                             Completion completion);

  void Run();
  void AcceptNew();
  void OnReadable(Connection& conn);
  void OnWritable(Connection& conn);
  /// Tries to cut one complete request out of conn.in: dispatches it to its
  /// handler (kHandling), queues a 400 for malformed heads, or leaves the
  /// connection reading. May close the connection (oversized head).
  void TryParseAndDispatch(Connection& conn);
  /// Renders and stages a response; the connection enters kWriting.
  void QueueResponse(Connection& conn, const HttpResponse& response,
                     bool keep_alive, bool close_after);
  void FinishWrite(Connection& conn);
  void SweepTimeouts(Clock::time_point now);
  void DrainCompletions();
  void CloseConnection(int fd);
  void Wake();
  int WaitTimeoutMs(Clock::time_point now) const;
  /// Calls the request's handler (or answers 404/405) with a `done` that
  /// routes the response back to connection `conn_id`.
  void Dispatch(uint64_t conn_id, const HttpRequest& request);

  const int requested_port_;
  const HttpServerOptions options_;
  const HttpRoutes routes_;

  int port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  bool listen_closed_ = false;

  std::unique_ptr<Poller> poller_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  uint64_t next_conn_id_ = 1;
  /// Loop-thread-only connection table. Completions address connections by
  /// id, not fd, so a completion for a connection that died (and whose fd
  /// number was reused by a new accept) is dropped instead of misdelivered.
  std::unordered_map<int, Connection> connections_;
  std::unordered_map<uint64_t, int> id_to_fd_;

  std::shared_ptr<CompletionSink> sink_;
};

}  // namespace serve
}  // namespace hire

#endif  // HIRE_SERVE_EVENT_LOOP_H_
