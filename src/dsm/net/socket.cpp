#include "dsm/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>

namespace dsm::net {

namespace {

/// host string -> in_addr; accepts dotted quads and "localhost".
bool parse_host(const std::string& host, in_addr& out) {
  if (host == "localhost") {
    out.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out) == 1;
}

/// The one place an Addr becomes a sockaddr of either family: fills `ss`
/// and returns its length, or 0 when the address is unusable.
socklen_t make_sockaddr(const Addr& addr, sockaddr_storage& ss) {
  ss = {};
  if (!addr.unix_name.empty()) {
    if (addr.unix_name.size() > kMaxUnixName) return 0;
    auto& un = reinterpret_cast<sockaddr_un&>(ss);
    un.sun_family = AF_UNIX;
    // Abstract namespace: sun_path[0] stays NUL and the length ends the name.
    std::memcpy(un.sun_path + 1, addr.unix_name.data(), addr.unix_name.size());
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                  addr.unix_name.size());
  }
  auto& in = reinterpret_cast<sockaddr_in&>(ss);
  in.sin_family = AF_INET;
  in.sin_port = htons(addr.port);
  return parse_host(addr.host, in.sin_addr) ? sizeof in : 0;
}

/// TCP_NODELAY, best effort: a socket without it is slower, not wrong.
void set_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

std::optional<Addr> parse_addr(std::string_view text) {
  if (text.starts_with('@')) {
    if (text.size() == 1 || text.size() - 1 > kMaxUnixName) return std::nullopt;
    Addr addr;
    addr.unix_name = text.substr(1);
    return addr;
  }
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  Addr addr;
  if (colon > 0) addr.host = std::string(text.substr(0, colon));
  const std::string port_str(text.substr(colon + 1));
  if (port_str.empty()) return std::nullopt;
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end != port_str.c_str() + port_str.size() || port > 65535) {
    return std::nullopt;
  }
  addr.port = static_cast<std::uint16_t>(port);
  in_addr dummy;
  if (!parse_host(addr.host, dummy)) return std::nullopt;
  return addr;
}

int listen_on(const Addr& addr) {
  sockaddr_storage ss;
  const socklen_t len = make_sockaddr(addr, ss);
  if (len == 0) return -1;
  const int fd = ::socket(ss.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  if (ss.ss_family == AF_INET) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&ss), len) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return -1;
  }
  set_nonblocking(fd);
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return 0;
  return ntohs(sa.sin_port);
}

int dial(const Addr& addr) {
  sockaddr_storage ss;
  const socklen_t len = make_sockaddr(addr, ss);
  if (len == 0) return -1;
  const int fd = ::socket(ss.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  set_nonblocking(fd);
  if (ss.ss_family == AF_INET) set_nodelay(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&ss), len) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int dial_blocking(const Addr& addr, int timeout_ms) {
  const int fd = dial(addr);
  if (fd < 0) return -1;
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  const int n = ::poll(&p, 1, timeout_ms);
  if (n != 1 || take_socket_error(fd) != 0) {
    ::close(fd);
    return -1;
  }
  // Back to blocking mode: the driver wants simple sequential I/O.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  return fd;
}

int accept_conn(int listen_fd) {
  sockaddr_storage peer{};
  socklen_t len = sizeof peer;
  const int fd = ::accept4(listen_fd, reinterpret_cast<sockaddr*>(&peer),
                           &len, SOCK_NONBLOCK);
  if (fd >= 0 && peer.ss_family == AF_INET) set_nodelay(fd);
  return fd;
}

int take_socket_error(int fd) {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return errno;
  return err;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace dsm::net
