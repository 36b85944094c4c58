#include "pscd/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace pscd::net {

ServerFds openServerFds(const char* owner, const std::string& bindAddress,
                        std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bindAddress.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error(std::string(owner) + ": bad bind address " +
                             bindAddress);
  }
  ServerFds fds;
  const auto check = [&](bool ok, const char* call) {
    if (ok) return;
    const std::string error =
        std::string(owner) + ": " + call + ": " + std::strerror(errno);
    for (const int fd : {fds.listenFd, fds.epollFd, fds.wakeFd}) {
      if (fd >= 0) ::close(fd);
    }
    throw std::runtime_error(error);
  };
  const int one = 1;
  fds.listenFd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  check(fds.listenFd >= 0, "socket");
  check(setsockopt(fds.listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) == 0,
        "setsockopt(SO_REUSEADDR)");
  check(bind(fds.listenFd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) == 0,
        "bind");
  check(listen(fds.listenFd, 128) == 0, "listen");
  check(setNonBlocking(fds.listenFd), "fcntl(O_NONBLOCK)");
  socklen_t len = sizeof(addr);
  check(getsockname(fds.listenFd, reinterpret_cast<sockaddr*>(&addr),
                    &len) == 0,
        "getsockname");
  fds.port = ntohs(addr.sin_port);
  fds.epollFd = epoll_create1(EPOLL_CLOEXEC);
  check(fds.epollFd >= 0, "epoll_create1");
  fds.wakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  check(fds.wakeFd >= 0, "eventfd");
  for (const int fd : {fds.listenFd, fds.wakeFd}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    check(epoll_ctl(fds.epollFd, EPOLL_CTL_ADD, fd, &ev) == 0, "epoll_ctl");
  }
  return fds;
}

bool setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

std::vector<sockaddr_in> resolveIpv4(const std::string& host,
                                     std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + host + ": " +
                             gai_strerror(rc));
  }
  std::vector<sockaddr_in> addresses;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    std::memcpy(&addresses.emplace_back(), ai->ai_addr, sizeof(sockaddr_in));
  }
  ::freeaddrinfo(results);
  return addresses;
}

int dialFirst(const std::vector<sockaddr_in>& addresses) {
  errno = ECONNREFUSED;
  for (const sockaddr_in& addr : addresses) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, IPPROTO_TCP);
    if (fd < 0) continue;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    const int err = errno;
    ::close(fd);
    errno = err;
  }
  return -1;
}

}  // namespace pscd::net
