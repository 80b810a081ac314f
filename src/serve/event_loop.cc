#include "serve/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "utils/check.h"
#include "utils/fault_injection.h"
#include "utils/logging.h"

namespace hire {
namespace serve {

namespace {

constexpr size_t kMaxHeadBytes = 16 * 1024;
constexpr size_t kMaxBodyBytes = 4 * 1024 * 1024;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string ToLower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

std::string RenderResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

struct ParsedHead {
  bool ok = false;
  std::string method;
  std::string path;
  std::string query;
  size_t content_length = 0;
  bool keep_alive = true;  // HTTP/1.1 default
  std::map<std::string, std::string> headers;  // names lower-cased
};

/// Parses the request line + headers in buffer[0, head_end).
ParsedHead ParseHead(const std::string& buffer, size_t head_end) {
  ParsedHead head;
  const size_t line_end = buffer.find("\r\n");
  if (line_end == std::string::npos || line_end > head_end) return head;

  const std::string request_line = buffer.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return head;
  head.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = target.find('?');
  if (query != std::string::npos) {
    head.query = target.substr(query + 1);
    target.resize(query);
  }
  head.path = target;
  const std::string version = request_line.substr(sp2 + 1);
  if (version == "HTTP/1.0") head.keep_alive = false;

  size_t pos = line_end + 2;
  while (pos < head_end) {
    const size_t eol = buffer.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) break;
    const std::string line = buffer.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = ToLower(line.substr(0, colon));
    size_t value_begin = colon + 1;
    while (value_begin < line.size() && line[value_begin] == ' ') {
      ++value_begin;
    }
    const std::string value = line.substr(value_begin);
    head.headers[name] = value;
    if (name == "content-length") {
      try {
        head.content_length = static_cast<size_t>(std::stoull(value));
      } catch (const std::exception&) {
        return head;  // ok stays false
      }
    } else if (name == "connection") {
      const std::string lower = ToLower(value);
      if (lower == "close") head.keep_alive = false;
      if (lower == "keep-alive") head.keep_alive = true;
    }
  }
  head.ok = true;
  return head;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  HIRE_CHECK_GE(flags, 0) << "fcntl(F_GETFL) failed: " << std::strerror(errno);
  HIRE_CHECK_GE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0)
      << "fcntl(F_SETFL) failed: " << std::strerror(errno);
}

/// poll(2)-set backend: portable, O(open fds) per wait. Fine for the test
/// scale and a correctness oracle for the epoll backend.
class PollSetPoller : public Poller {
 public:
  void Add(int fd, bool want_read, bool want_write) override {
    Update(fd, want_read, want_write);
  }
  void Update(int fd, bool want_read, bool want_write) override {
    short events = 0;
    if (want_read) events |= POLLIN;
    if (want_write) events |= POLLOUT;
    wanted_[fd] = events;
  }
  void Remove(int fd) override { wanted_.erase(fd); }
  int Wait(int timeout_ms, std::vector<PollEvent>* events) override {
    events->clear();
    fds_.clear();
    for (const auto& [fd, mask] : wanted_) {
      fds_.push_back({fd, mask, 0});
    }
    const int ready = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (ready <= 0) return ready < 0 && errno != EINTR ? -1 : 0;
    for (const pollfd& pfd : fds_) {
      if (pfd.revents == 0) continue;
      PollEvent event;
      event.fd = pfd.fd;
      event.readable = (pfd.revents & (POLLIN | POLLHUP)) != 0;
      event.writable = (pfd.revents & POLLOUT) != 0;
      event.error = (pfd.revents & (POLLERR | POLLNVAL)) != 0;
      events->push_back(event);
    }
    return static_cast<int>(events->size());
  }
  const char* name() const override { return "poll"; }

 private:
  std::map<int, short> wanted_;
  std::vector<pollfd> fds_;
};

#ifdef __linux__
class EpollPoller : public Poller {
 public:
  EpollPoller() : epoll_fd_(::epoll_create1(0)) {
    HIRE_CHECK_GE(epoll_fd_, 0)
        << "epoll_create1 failed: " << std::strerror(errno);
  }
  ~EpollPoller() override { ::close(epoll_fd_); }

  void Add(int fd, bool want_read, bool want_write) override {
    epoll_event event = Event(fd, want_read, want_write);
    HIRE_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event), 0)
        << "epoll_ctl(ADD) failed: " << std::strerror(errno);
  }
  void Update(int fd, bool want_read, bool want_write) override {
    epoll_event event = Event(fd, want_read, want_write);
    HIRE_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event), 0)
        << "epoll_ctl(MOD) failed: " << std::strerror(errno);
  }
  void Remove(int fd) override {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  int Wait(int timeout_ms, std::vector<PollEvent>* events) override {
    events->clear();
    epoll_event ready[256];
    const int n = ::epoll_wait(epoll_fd_, ready, 256, timeout_ms);
    if (n <= 0) return n < 0 && errno != EINTR ? -1 : 0;
    for (int i = 0; i < n; ++i) {
      PollEvent event;
      event.fd = ready[i].data.fd;
      event.readable = (ready[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      event.writable = (ready[i].events & EPOLLOUT) != 0;
      event.error = (ready[i].events & EPOLLERR) != 0;
      events->push_back(event);
    }
    return n;
  }
  const char* name() const override { return "epoll"; }

 private:
  static epoll_event Event(int fd, bool want_read, bool want_write) {
    epoll_event event;
    std::memset(&event, 0, sizeof(event));
    if (want_read) event.events |= EPOLLIN;
    if (want_write) event.events |= EPOLLOUT;
    event.data.fd = fd;
    return event;
  }

  int epoll_fd_;
};
#endif  // __linux__

}  // namespace

std::unique_ptr<Poller> Poller::Create() {
  const char* backend = std::getenv("HIRE_SERVE_EVENT_BACKEND");
#ifdef __linux__
  if (backend == nullptr || std::string(backend) != "poll") {
    return std::make_unique<EpollPoller>();
  }
#else
  (void)backend;
#endif
  return std::make_unique<PollSetPoller>();
}

HttpEventLoop::HttpEventLoop(int port, HttpServerOptions options,
                             HttpRoutes routes)
    : requested_port_(port), options_(options), routes_(std::move(routes)) {
  HIRE_CHECK_GE(port, 0);
  HIRE_CHECK_GT(options.idle_timeout_ms, 0);
  HIRE_CHECK_GT(options.header_timeout_ms, 0);
  HIRE_CHECK_GE(options.max_connections, 0);
  for (const auto& [key, handler] : routes_) HIRE_CHECK(handler != nullptr);
}

HttpEventLoop::~HttpEventLoop() { Stop(); }

void HttpEventLoop::Start() {
  HIRE_CHECK(!running_.load()) << "event loop already started";

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  HIRE_CHECK_GE(listen_fd_, 0) << "socket() failed: " << std::strerror(errno);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    HIRE_CHECK(false) << "bind(127.0.0.1:" << requested_port_
                      << ") failed: " << error;
  }
  HIRE_CHECK_EQ(::listen(listen_fd_, 512), 0)
      << "listen() failed: " << std::strerror(errno);
  SetNonBlocking(listen_fd_);

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  HIRE_CHECK_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                              &bound_len),
                0)
      << "getsockname() failed: " << std::strerror(errno);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  int pipe_fds[2];
  HIRE_CHECK_EQ(::pipe(pipe_fds), 0)
      << "pipe() failed: " << std::strerror(errno);
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  poller_ = Poller::Create();
  poller_->Add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->Add(wake_read_fd_, /*want_read=*/true, /*want_write=*/false);

  sink_ = std::make_shared<CompletionSink>();
  sink_->wake_fd = wake_write_fd_;

  listen_closed_ = false;
  stopping_.store(false);
  running_.store(true);
  loop_thread_ = std::thread([this] { Run(); });
  HIRE_LOG(Info) << "http event loop listening on 127.0.0.1:" << port_
                 << " (backend=" << poller_->name()
                 << (options_.max_connections > 0
                         ? ", max_connections=" +
                               std::to_string(options_.max_connections)
                         : std::string())
                 << ")";
}

void HttpEventLoop::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (sink_ != nullptr) {
    // Unreachable from here on: late `done` callbacks (requests still
    // parked in a backend queue) see wake_fd == -1 under the sink mutex and
    // drop their completion instead of writing a dead — possibly reused —
    // pipe fd. Their connections were closed when the loop exited.
    std::lock_guard<std::mutex> lock(sink_->mutex);
    sink_->wake_fd = -1;
    sink_->completions.clear();
  }
  sink_.reset();
  if (listen_fd_ >= 0 && !listen_closed_) ::close(listen_fd_);
  listen_fd_ = -1;
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = -1;
  wake_write_fd_ = -1;
  poller_.reset();
  running_.store(false);
}

void HttpEventLoop::Wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_write_fd_, &byte, 1);
}

int HttpEventLoop::WaitTimeoutMs(Clock::time_point now) const {
  // Wake early enough to honor the nearest connection deadline, but never
  // sleep more than 200ms so a Stop() is noticed promptly even if the wake
  // pipe write were ever lost.
  int timeout_ms = 200;
  for (const auto& [fd, conn] : connections_) {
    if (conn.state == ConnState::kHandling) continue;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(conn.deadline -
                                                              now)
            .count();
    timeout_ms = std::clamp<int>(static_cast<int>(remaining), 0, timeout_ms);
  }
  return timeout_ms;
}

void HttpEventLoop::Run() {
  std::vector<PollEvent> events;
  while (true) {
    const Clock::time_point now = Clock::now();

    if (stopping_.load()) {
      // Drain: stop accepting, drop connections that are between or reading
      // requests, and keep looping only until in-flight handlers finish
      // writing their responses.
      if (!listen_closed_) {
        poller_->Remove(listen_fd_);
        ::close(listen_fd_);
        listen_closed_ = true;
      }
      std::vector<int> reading;
      for (const auto& [fd, conn] : connections_) {
        if (conn.state == ConnState::kReading) reading.push_back(fd);
      }
      for (int fd : reading) CloseConnection(fd);
      if (connections_.empty()) break;
    }

    const int wait_ms = stopping_.load() ? 20 : WaitTimeoutMs(now);
    const int ready = poller_->Wait(wait_ms, &events);
    if (ready < 0) {
      HIRE_LOG(Warning) << "poller wait failed: " << std::strerror(errno);
      break;
    }

    for (const PollEvent& event : events) {
      if (event.fd == listen_fd_ && !listen_closed_) {
        AcceptNew();
        continue;
      }
      if (event.fd == wake_read_fd_) {
        char sink[256];
        while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(event.fd);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      if (event.error) {
        CloseConnection(conn.fd);
        continue;
      }
      if (event.writable && conn.state == ConnState::kWriting) {
        OnWritable(conn);
        // OnWritable may close/erase; re-find before reading.
        auto again = connections_.find(event.fd);
        if (again == connections_.end()) continue;
        if (event.readable && again->second.state == ConnState::kReading) {
          OnReadable(again->second);
        }
        continue;
      }
      if (event.readable && conn.state == ConnState::kReading) {
        OnReadable(conn);
      }
    }

    DrainCompletions();
    SweepTimeouts(Clock::now());
  }

  // Loop exit: every remaining fd (stuck writers, late completions) closes.
  std::vector<int> remaining;
  remaining.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) remaining.push_back(fd);
  for (int fd : remaining) CloseConnection(fd);
}

void HttpEventLoop::AcceptNew() {
  auto& registry = obs::MetricsRegistry::Global();
  while (true) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: wait for the next readiness
    }
    registry.GetCounter("serve.http.connections")->Increment();
    if (options_.max_connections > 0 &&
        static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Bounded fd table: answer at accept time instead of queueing the
      // connection behind ones we cannot serve.
      registry.GetCounter("serve.http.over_capacity")->Increment();
      const std::string reply = RenderResponse(
          {503, "application/json",
           "{\"error\":\"server at connection capacity\"}",
           {{"Retry-After", "1"}}},
          /*keep_alive=*/false);
      (void)!::send(client, reply.data(), reply.size(),
#ifdef MSG_NOSIGNAL
                    MSG_NOSIGNAL
#else
                    0
#endif
      );
      ::close(client);
      continue;
    }
    SetNonBlocking(client);
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Connection conn;
    conn.id = next_conn_id_++;
    conn.fd = client;
    conn.state = ConnState::kReading;
    conn.deadline =
        Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
    id_to_fd_[conn.id] = client;
    connections_.emplace(client, std::move(conn));
    registry.GetGauge("serve.http.open_connections")
        ->Set(static_cast<double>(connections_.size()));
    poller_->Add(client, /*want_read=*/true, /*want_write=*/false);
  }
}

void HttpEventLoop::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  poller_->Remove(fd);
  ::close(fd);
  id_to_fd_.erase(it->second.id);
  connections_.erase(it);
  obs::MetricsRegistry::Global()
      .GetGauge("serve.http.open_connections")
      ->Set(static_cast<double>(connections_.size()));
}

void HttpEventLoop::OnReadable(Connection& conn) {
  char chunk[4096];
  bool got_data = false;
  // Bound the bytes taken per readiness event so one firehose connection
  // cannot monopolize the loop; level-triggered polling re-notifies.
  for (int rounds = 0; rounds < 16; ++rounds) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<size_t>(n));
      got_data = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn.fd);  // EOF or hard error
    return;
  }
  if (got_data && !conn.request_started) {
    conn.request_started = true;
    conn.deadline =
        Clock::now() + std::chrono::milliseconds(options_.header_timeout_ms);
  }
  TryParseAndDispatch(conn);
}

void HttpEventLoop::TryParseAndDispatch(Connection& conn) {
  const size_t head_end = conn.in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (conn.in.size() > kMaxHeadBytes) CloseConnection(conn.fd);
    return;  // need more bytes (or just closed)
  }
  const ParsedHead head = ParseHead(conn.in, head_end);
  if (!head.ok || head.content_length > kMaxBodyBytes) {
    QueueResponse(conn,
                  {400, "application/json",
                   "{\"error\":\"malformed request\"}",
                   {}},
                  /*keep_alive=*/false, /*close_after=*/true);
    return;
  }
  const size_t body_begin = head_end + 4;
  if (conn.in.size() < body_begin + head.content_length) return;  // body pending

  HttpRequest request;
  request.method = head.method;
  request.path = head.path;
  request.query = head.query;
  request.headers = head.headers;
  request.body = conn.in.substr(body_begin, head.content_length);
  conn.in.erase(0, body_begin + head.content_length);  // keep pipelined bytes

  conn.keep_alive_next = head.keep_alive;
  conn.state = ConnState::kHandling;
  poller_->Update(conn.fd, /*want_read=*/false, /*want_write=*/false);

  Dispatch(conn.id, request);
}

void HttpEventLoop::PushCompletion(
    const std::shared_ptr<CompletionSink>& sink, Completion completion) {
  std::lock_guard<std::mutex> lock(sink->mutex);
  if (sink->wake_fd < 0) return;  // loop gone; the connection is closed
  sink->completions.push_back(std::move(completion));
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(sink->wake_fd, &byte, 1);
}

void HttpEventLoop::Dispatch(uint64_t conn_id, const HttpRequest& request) {
  // `done` captures the sink, not `this`, because a backend can invoke it
  // after the loop object is gone.
  auto completed = std::make_shared<std::atomic<bool>>(false);
  const HttpDone done = [sink = sink_, conn_id,
                         completed](HttpResponse response) {
    // Exactly-once guard: a buggy double `done` (or a handler that
    // completed and then threw) must not write two responses into one
    // connection's stream.
    if (completed->exchange(true)) return;
    Completion completion;
    completion.conn_id = conn_id;
    completion.response = std::move(response);
    PushCompletion(sink, std::move(completion));
  };
  const auto it = routes_.find({request.method, request.path});
  if (it == routes_.end()) {
    // Distinguish wrong-method from unknown-path for friendlier errors.
    for (const auto& [key, handler] : routes_) {
      if (key.second == request.path) {
        done({405, "application/json", "{\"error\":\"method not allowed\"}"});
        return;
      }
    }
    done({404, "application/json", "{\"error\":\"no such endpoint\"}"});
    return;
  }
  try {
    it->second(request, done);
  } catch (const std::exception&) {
    obs::MetricsRegistry::Global()
        .GetCounter("serve.http.handler_errors")
        ->Increment();
    done({500, "application/json", "{\"error\":\"internal error\"}"});
  }
}

void HttpEventLoop::DrainCompletions() {
  std::vector<Completion> drained;
  {
    std::lock_guard<std::mutex> lock(sink_->mutex);
    drained.swap(sink_->completions);
  }
  for (Completion& completion : drained) {
    const auto it = id_to_fd_.find(completion.conn_id);
    if (it == id_to_fd_.end()) continue;  // connection died mid-handling
    Connection& conn = connections_.at(it->second);
    if (FaultInjector::Global().ConsumeServeConnectionReset()) {
      obs::MetricsRegistry::Global()
          .GetCounter("serve.http.injected_resets")
          ->Increment();
      CloseConnection(conn.fd);  // drop without sending the response
      continue;
    }
    QueueResponse(conn, completion.response, conn.keep_alive_next,
                  /*close_after=*/!conn.keep_alive_next);
  }
}

void HttpEventLoop::QueueResponse(Connection& conn,
                                  const HttpResponse& response,
                                  bool keep_alive, bool close_after) {
  conn.out = RenderResponse(response, keep_alive);
  conn.out_sent = 0;
  conn.on_written = response.on_written;
  conn.close_after_write = close_after;
  conn.state = ConnState::kWriting;
  conn.write_start = Clock::now();
  // A peer that stops reading gets the idle budget to drain the response.
  conn.deadline =
      conn.write_start + std::chrono::milliseconds(options_.idle_timeout_ms);
  poller_->Update(conn.fd, /*want_read=*/false, /*want_write=*/true);
  OnWritable(conn);  // usually completes immediately into the socket buffer
}

void HttpEventLoop::OnWritable(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.out.size() - conn.out_sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // wait for POLLOUT
      CloseConnection(conn.fd);
      return;
    }
    conn.out_sent += static_cast<size_t>(n);
  }
  FinishWrite(conn);
}

void HttpEventLoop::FinishWrite(Connection& conn) {
  if (conn.on_written) {
    conn.on_written(std::chrono::duration<double, std::micro>(Clock::now() -
                                                              conn.write_start)
                        .count());
    conn.on_written = nullptr;
  }
  if (conn.close_after_write) {
    CloseConnection(conn.fd);
    return;
  }
  conn.out.clear();
  conn.out_sent = 0;
  conn.state = ConnState::kReading;
  conn.request_started = !conn.in.empty();  // pipelined bytes already here
  conn.deadline = Clock::now() +
                  std::chrono::milliseconds(conn.request_started
                                                ? options_.header_timeout_ms
                                                : options_.idle_timeout_ms);
  poller_->Update(conn.fd, /*want_read=*/true, /*want_write=*/false);
  if (conn.request_started) TryParseAndDispatch(conn);
}

void HttpEventLoop::SweepTimeouts(Clock::time_point now) {
  std::vector<int> idle_expired;
  std::vector<int> read_expired;
  std::vector<int> write_expired;
  for (const auto& [fd, conn] : connections_) {
    if (conn.state == ConnState::kHandling || now < conn.deadline) continue;
    if (conn.state == ConnState::kWriting) {
      write_expired.push_back(fd);
    } else if (conn.request_started) {
      read_expired.push_back(fd);
    } else {
      idle_expired.push_back(fd);
    }
  }
  auto& registry = obs::MetricsRegistry::Global();
  for (int fd : idle_expired) {
    registry.GetCounter("serve.http.idle_closed")->Increment();
    CloseConnection(fd);
  }
  for (int fd : read_expired) {
    // Slow-loris: the client started a request but did not finish it within
    // the read budget.
    registry.GetCounter("serve.http.request_read_timeouts")->Increment();
    Connection& conn = connections_.at(fd);
    QueueResponse(conn,
                  {408, "application/json",
                   "{\"error\":\"request read timed out\"}",
                   {}},
                  /*keep_alive=*/false, /*close_after=*/true);
  }
  for (int fd : write_expired) {
    CloseConnection(fd);  // peer stopped reading its response
  }
}

}  // namespace serve
}  // namespace hire
