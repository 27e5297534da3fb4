// optcm — thin POSIX stream-socket helpers shared by the transport, the
// cluster harness, and the CLI.
//
// The address text picks the family: "host:port" is TCP over IPv4, "@name" a
// Linux abstract-namespace AF_UNIX socket (freed when its last fd closes, so
// no file to clean up); callers above this file are family-blind.
// Resolver-free on purpose (numeric IPv4, plus "localhost" as a spelling of
// 127.0.0.1), so the helpers stay dependency-free and non-blocking-safe.
// Every function reports failure by return value; errno is left intact for
// the caller's diagnostics.

#pragma once

#include <sys/un.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dsm::net {

/// A parsed endpoint: a non-empty `unix_name` selects AF_UNIX, else TCP
/// host:port, host defaulting to 127.0.0.1 when the text is just ":port".
struct Addr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string unix_name;  ///< abstract name, without the leading '@'
};

/// Longest abstract name: sun_path minus its leading NUL.
inline constexpr std::size_t kMaxUnixName = sizeof(sockaddr_un::sun_path) - 1;

/// "host:port" or "@name".  std::nullopt on malformed input (missing or
/// invalid port, unparseable IPv4 host, empty or over-long name).
[[nodiscard]] std::optional<Addr> parse_addr(std::string_view text);

/// Non-blocking listener bound to the address (TCP port 0 =
/// kernel-assigned; SO_REUSEADDR on TCP), backlog SOMAXCONN.  Returns the
/// fd, or -1 (an abstract name already bound is a failure).
[[nodiscard]] int listen_on(const Addr& addr);

/// The port a bound TCP socket actually got (port-0 binds).  0 on error.
[[nodiscard]] std::uint16_t local_port(int fd);

/// Start a non-blocking connect.  Returns the fd, or -1 on immediate
/// failure.  A TCP connect completes asynchronously (poll for writability
/// and check take_socket_error); an AF_UNIX connect completes at once or
/// fails here (EAGAIN on a full backlog, ECONNREFUSED with no listener).
[[nodiscard]] int dial(const Addr& addr);

/// Blocking connect with an overall deadline (driver side).  Returns the
/// connected fd (blocking mode), or -1.
[[nodiscard]] int dial_blocking(const Addr& addr, int timeout_ms);

/// Accept one pending connection on a listener, non-blocking, with
/// TCP_NODELAY when it is TCP.  -1 when none is pending (or on error).
[[nodiscard]] int accept_conn(int listen_fd);

/// SO_ERROR fetch-and-clear: 0 when the async connect succeeded.
[[nodiscard]] int take_socket_error(int fd);

/// Best-effort fcntl tweak (a no-op on failure).
void set_nonblocking(int fd);

}  // namespace dsm::net
