// POSIX socket set-up shared by the serving tier: the listener, epoll
// set and wake eventfd of Daemon and ChaosProxy, and the
// resolve-then-dial that WireClient and ChaosProxy use for HOST:PORT.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pscd::net {

/// The fds an epoll-driven server owns; the owner closes all three.
struct ServerFds {
  int listenFd = -1;  // non-blocking IPv4 listener
  int epollFd = -1;   // watches listenFd and wakeFd for EPOLLIN
  int wakeFd = -1;    // non-blocking eventfd that stop() writes to
  std::uint16_t port = 0;  // the bound port (resolves a requested 0)
};

/// Binds `bindAddress` (an IPv4 literal) at `port`, listens with an
/// accept queue of 128, and registers the listener and a fresh wake
/// eventfd with a fresh epoll set. On failure closes what it opened and
/// throws std::runtime_error("<owner>: <call>: <errno text>").
ServerFds openServerFds(const char* owner, const std::string& bindAddress,
                        std::uint16_t port);

/// Sets O_NONBLOCK on `fd`; false with errno set when fcntl fails.
bool setNonBlocking(int fd);

/// The IPv4 addresses of `host` (a name or a dotted quad) at `port`;
/// throws std::runtime_error naming `host` when the lookup fails.
std::vector<sockaddr_in> resolveIpv4(const std::string& host,
                                     std::uint16_t port);

/// A blocking, close-on-exec TCP_NODELAY socket connected to the first
/// of `addresses` that accepts, or -1 with errno from the last failure.
int dialFirst(const std::vector<sockaddr_in>& addresses);

}  // namespace pscd::net
