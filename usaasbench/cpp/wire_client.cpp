#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace usaasbench {

namespace {

/// Owns one socket descriptor.
class Socket {
 public:
  Socket() : fd_{::socket(AF_INET, SOCK_STREAM, 0)} {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

WireResponse http_exchange(std::uint16_t port, std::string_view request) {
  WireResponse out;
  out.timing.start = Clock::now();
  Socket sock;
  if (sock.fd() < 0) return out;
  timeval timeout{5, 0};
  setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return out;
  }
  out.timing.connected = Clock::now();
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(sock.fd(), request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    sent += static_cast<std::size_t>(n);
  }
  out.timing.sent = Clock::now();
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return out;  // timeout or reset: a transport failure
    if (n == 0) break;
    if (raw.empty()) out.timing.first_byte = Clock::now();
    raw.append(buf, static_cast<std::size_t>(n));
  }
  out.timing.done = Clock::now();
  linger abort_close{1, 0};
  setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &abort_close, sizeof abort_close);

  // "HTTP/1.1 200 OK\r\n...\r\n\r\nbody"
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || raw.size() < 12) return out;
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return out;
  out.status = std::atoi(raw.c_str() + 9);
  out.body = raw.substr(header_end + 4);
  return out;
}

namespace {

/// Position just after `"key":`, or npos.
std::size_t value_pos(std::string_view body, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = body.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

}  // namespace

std::optional<double> json_number(std::string_view body, std::string_view key) {
  const std::size_t at = value_pos(body, key);
  if (at == std::string_view::npos) return std::nullopt;
  const std::string tail{body.substr(at, 40)};
  char* end = nullptr;
  const double v = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) return std::nullopt;
  return v;
}

}  // namespace usaasbench
