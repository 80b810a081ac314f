#include "serve/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "utils/fault_injection.h"

namespace hire {
namespace serve {

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ToLower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

}  // namespace

HttpClient::HttpClient(int port, const std::string& host, int timeout_ms)
    : host_(host), port_(port), timeout_ms_(timeout_ms) {}

HttpClient::~HttpClient() { Disconnect(); }

void HttpClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpClient::EnsureConnected(std::string* error) {
  if (fd_ >= 0) return true;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket() failed: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host address: " + host_;
    Disconnect();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect(") + host_ + ":" + std::to_string(port_) +
             ") failed: " + std::strerror(errno);
    Disconnect();
    return false;
  }
  // Both directions are bounded: a wedged server must surface as a distinct
  // timeout within timeout_ms_, not hang the client (or block forever in
  // send when the peer's window closes).
  timeval timeout;
  timeout.tv_sec = timeout_ms_ / 1000;
  timeout.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

HttpClient::Result HttpClient::Request(
    const std::string& method, const std::string& path,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  Result result = RequestOnce(method, path, body, extra_headers);
  if (!result.ok && !result.timed_out && !result.framing_error &&
      method == "GET") {
    // The keep-alive connection may have died mid-exchange. Retrying is only
    // safe for idempotent GETs: a POST's first attempt may have been fully
    // processed before the response was lost, and replaying it would e.g.
    // double-count /predict metrics or hot-swap /reload twice. (Stale
    // recycled connections are already detected before any bytes are sent —
    // see RequestOnce — so POSTs never pay for that common case.)
    Disconnect();
    result = RequestOnce(method, path, body, extra_headers);
  }
  if (!result.ok) Disconnect();
  return result;
}

HttpClient::Result HttpClient::RequestOnce(
    const std::string& method, const std::string& path,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  Result result;
  if (fd_ >= 0) {
    // Reused keep-alive connection: the server may have closed it while it
    // sat idle. Peek without blocking; EOF or an error here means the
    // connection is stale, and since no request bytes have been sent yet it
    // is safe to reconnect for any method. Bytes here answer no request of
    // ours (a server that replied to the last one twice); read as the next
    // reply, they would hand the caller another request's answer.
    char probe = 0;
    const ssize_t n =
        ::recv(fd_, &probe, sizeof(probe), MSG_PEEK | MSG_DONTWAIT);
    if (n > 0) {
      result.framing_error = true;
      result.error =
          "framing error: unsolicited bytes on an idle keep-alive connection";
      return result;
    }
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      Disconnect();
    }
  }
  if (!EnsureConnected(&result.error)) return result;

  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: " + host_ + ":" + std::to_string(port_) + "\r\n";
  request += "Connection: keep-alive\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (!body.empty()) request += "Content-Type: application/json\r\n";
  for (const auto& [name, value] : extra_headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "\r\n";
  request += body;

  const int64_t stall_ms = FaultInjector::Global().ServeStallClientMs();
  if (stall_ms > 0) {
    // Injected slow-loris: dribble the first half of the request, stall,
    // then (try to) send the rest. A well-defended server cuts the
    // connection off with its header-read deadline during the stall.
    const size_t half = request.size() / 2;
    if (!SendAll(fd_, request.substr(0, half))) {
      result.error = std::string("send failed: ") + std::strerror(errno);
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    if (!SendAll(fd_, request.substr(half))) {
      result.error = std::string("send failed: ") + std::strerror(errno);
      return result;
    }
  } else if (!SendAll(fd_, request)) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.timed_out = true;
      result.error = "timeout: send stalled for " +
                     std::to_string(timeout_ms_) + "ms";
    } else {
      result.error = std::string("send failed: ") + std::strerror(errno);
    }
    return result;
  }

  std::string buffer;
  char chunk[4096];
  size_t head_end = std::string::npos;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        result.timed_out = true;
        result.error = "timeout: no response within " +
                       std::to_string(timeout_ms_) + "ms";
      } else {
        result.error = n == 0 ? "connection closed by server"
                              : std::string("recv failed: ") +
                                    std::strerror(errno);
      }
      return result;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }

  // Status line: HTTP/1.1 <code> <phrase>
  const size_t space = buffer.find(' ');
  if (space == std::string::npos || space + 4 > buffer.size()) {
    result.error = "malformed status line";
    return result;
  }
  result.status = std::atoi(buffer.c_str() + space + 1);

  // Header lines up to head_end.
  size_t content_length = 0;
  {
    size_t pos = buffer.find("\r\n") + 2;
    while (pos < head_end) {
      size_t eol = buffer.find("\r\n", pos);
      if (eol == std::string::npos || eol > head_end) eol = head_end;
      const std::string line = buffer.substr(pos, eol - pos);
      pos = eol + 2;
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string name = ToLower(line.substr(0, colon));
      size_t value_begin = colon + 1;
      while (value_begin < line.size() && line[value_begin] == ' ') {
        ++value_begin;
      }
      result.headers[name] = line.substr(value_begin);
    }
    const auto it = result.headers.find("content-length");
    if (it != result.headers.end()) {
      content_length =
          static_cast<size_t>(std::strtoull(it->second.c_str(), nullptr, 10));
    }
  }

  const size_t body_begin = head_end + 4;
  while (buffer.size() < body_begin + content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        result.timed_out = true;
        result.error = "timeout: response body stalled";
      } else {
        result.error = "connection closed mid-body";
      }
      return result;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  if (buffer.size() > body_begin + content_length) {
    // One request, more than one reply's bytes: dropping them would leave
    // the stream misframed for whatever reads it next.
    result.framing_error = true;
    result.error = "framing error: " +
                   std::to_string(buffer.size() - body_begin -
                                  content_length) +
                   " bytes past Content-Length";
    return result;
  }
  result.body = buffer.substr(body_begin, content_length);
  result.ok = true;
  return result;
}

}  // namespace serve
}  // namespace hire
