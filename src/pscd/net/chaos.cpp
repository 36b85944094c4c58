#include "pscd/net/chaos.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "pscd/net/socket.h"
#include "pscd/util/log.h"
#include "pscd/util/rng.h"
#include "pscd/util/wallclock.h"

namespace pscd::net {

namespace {

/// Uniform [0, 1) from a SplitMix64 stream.
double u01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

void validateDirection(const ChaosDirection& dir, const char* name) {
  if (dir.latencySeconds < 0 || dir.jitterSeconds < 0 ||
      dir.bytesPerSecond < 0) {
    throw std::invalid_argument(std::string("ChaosProxy: negative ") + name +
                                " latency/jitter/rate");
  }
}

}  // namespace

std::string formatChaosStats(const ChaosStats& s) {
  std::string out = "chaos:";
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("connections", s.connections);
  field("connect_failures", s.connectFailures);
  field("resets", s.resets);
  field("truncated", s.truncated);
  field("stalled", s.stalled);
  field("bytes_up", s.bytesUpstream);
  field("bytes_down", s.bytesDownstream);
  return out;
}

ChaosProxy::ChaosProxy(const ChaosConfig& config) : config_(config) {
  if (config_.targetPort == 0) {
    throw std::invalid_argument("ChaosProxy: targetPort must be set");
  }
  validateDirection(config_.clientToServer, "clientToServer");
  validateDirection(config_.serverToClient, "serverToClient");

  target_ = resolveIpv4(config_.targetAddress, config_.targetPort);
  const ServerFds fds =
      openServerFds("ChaosProxy", config_.bindAddress, config_.port);
  listenFd_ = fds.listenFd;
  epollFd_ = fds.epollFd;
  wakeFd_ = fds.wakeFd;
  port_ = fds.port;
}

ChaosProxy::~ChaosProxy() {
  closeAll();
  ::close(wakeFd_);
}

void ChaosProxy::closeAll() {
  for (auto& [id, link] : links_) {
    if (link.clientFd >= 0) ::close(link.clientFd);
    if (link.serverFd >= 0) ::close(link.serverFd);
  }
  links_.clear();
  fdIndex_.clear();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (epollFd_ >= 0) {
    ::close(epollFd_);
    epollFd_ = -1;
  }
}

void ChaosProxy::stop() {
  stopRequested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

int ChaosProxy::computeWaitMs(double now) const {
  double wake = std::numeric_limits<double>::infinity();
  for (const auto& [id, link] : links_) {
    for (const Pipe* pipe : {&link.up, &link.down}) {
      if (pipe->queue.empty() || pipe->dstWantWrite) continue;
      // nextSendAt stays 0 on a pipe without a throttle.
      wake = std::min(
          wake, std::max(pipe->queue.front().releaseAt, pipe->nextSendAt));
    }
  }
  if (!std::isfinite(wake)) return -1;
  if (wake <= now) return 0;
  const double ms = std::ceil((wake - now) * 1000.0);
  return ms >= 60000.0 ? 60000 : static_cast<int>(ms);
}

void ChaosProxy::run() {
  if (ran_) throw std::logic_error("ChaosProxy::run called twice");
  ran_ = true;
  std::vector<epoll_event> events(64);
  std::vector<std::uint64_t> sweep;
  while (!stopRequested_.load(std::memory_order_acquire)) {
    const int timeout = computeWaitMs(monotonicSeconds());
    const int n = epoll_wait(epollFd_, events.data(),
                             static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      logError() << "pscd_chaos: epoll_wait: " << std::strerror(errno);
      break;
    }
    const double now = monotonicSeconds();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == wakeFd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wakeFd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listenFd_) {
        acceptConnections();
        continue;
      }
      const auto it = fdIndex_.find(fd);
      if (it == fdIndex_.end()) continue;  // torn down earlier this batch
      handleEvent(it->second.first, it->second.second, mask, now);
    }
    // Flush every due chunk and re-arm interest; torn-down links drop
    // out of the id sweep via the find().
    sweep.clear();
    for (const auto& [id, link] : links_) sweep.push_back(id);
    const double flushNow = monotonicSeconds();
    for (const std::uint64_t id : sweep) {
      if (links_.find(id) == links_.end()) continue;
      if (!flushPipe(id, true, flushNow)) continue;
      if (!flushPipe(id, false, flushNow)) continue;
      Link& link = links_.at(id);
      updateInterest(link, true);
      updateInterest(link, false);
    }
  }
  closeAll();
}

void ChaosProxy::acceptConnections() {
  while (true) {
    const int cfd = accept4(listenFd_, nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      logWarn() << "pscd_chaos: accept: " << std::strerror(errno);
      return;
    }
    // Splice a fresh connection to the target. The target is the local
    // daemon, so a blocking connect completes immediately; the fd goes
    // non-blocking right after.
    const int sfd = dialFirst(target_);
    if (sfd < 0 || !setNonBlocking(sfd)) {
      logWarn() << "pscd_chaos: cannot reach target "
                << config_.targetAddress << ":" << config_.targetPort
                << ": " << std::strerror(errno);
      ::close(cfd);
      if (sfd >= 0) ::close(sfd);
      ++stats_.connectFailures;
      continue;
    }
    const int one = 1;
    setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Link link;
    link.index = stats_.connections++;
    link.clientFd = cfd;
    link.serverFd = sfd;
    const bool faulted = config_.faultConnections == 0 ||
                         link.index < config_.faultConnections;
    if (faulted) {
      link.up.faults = config_.clientToServer;
      link.down.faults = config_.serverToClient;
      link.resetEnabled = config_.resetAfterClientBytes > 0;
    }
    // Independent jitter streams per connection and direction, all
    // derived from the one seed.
    std::uint64_t base =
        config_.seed + 0x9e3779b97f4a7c15ull * (link.index + 1);
    link.up.rngState = splitmix64(base);
    link.down.rngState = splitmix64(base);
    link.clientEvents = EPOLLIN;
    link.serverEvents = EPOLLIN;

    const std::uint64_t id = nextLinkId_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = cfd;
    if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, cfd, &ev) < 0) {
      ::close(cfd);
      ::close(sfd);
      continue;
    }
    ev.data.fd = sfd;
    if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, sfd, &ev) < 0) {
      epoll_ctl(epollFd_, EPOLL_CTL_DEL, cfd, nullptr);
      ::close(cfd);
      ::close(sfd);
      continue;
    }
    fdIndex_[cfd] = {id, true};
    fdIndex_[sfd] = {id, false};
    links_.emplace(id, std::move(link));
  }
}

void ChaosProxy::handleEvent(std::uint64_t linkId, bool clientSide,
                             std::uint32_t mask, double now) {
  const auto it = links_.find(linkId);
  if (it == links_.end()) return;
  Link& link = it->second;
  if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
    closeLink(linkId);
    return;
  }
  if ((mask & EPOLLOUT) != 0) {
    // This fd is the destination of the opposite direction's pipe; the
    // run-loop sweep retries the flush now that it is writable again.
    Pipe& dstPipe = clientSide ? link.down : link.up;
    dstPipe.dstWantWrite = false;
  }
  if ((mask & EPOLLIN) != 0) pumpRead(linkId, clientSide, now);
}

void ChaosProxy::pumpRead(std::uint64_t linkId, bool clientSide,
                          double now) {
  Link& link = links_.at(linkId);
  Pipe& pipe = clientSide ? link.up : link.down;
  const int srcFd = clientSide ? link.clientFd : link.serverFd;
  char buffer[65536];
  while (!pipe.srcEof && !pipe.stalled && !pipe.truncated) {
    const ssize_t n = recv(srcFd, buffer, sizeof(buffer), 0);
    if (n == 0) {
      pipe.srcEof = true;
      break;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      pipe.srcEof = true;  // treat a read error as the end of this side
      break;
    }
    if (clientSide) link.clientBytesIn += static_cast<std::uint64_t>(n);

    // Stall / truncate cap how much of this read is ever forwarded: a
    // cap `limit` bytes into the stream that this read reaches fires.
    std::size_t allow = static_cast<std::size_t>(n);
    const auto capAt = [&](std::uint64_t limit) {
      if (limit == 0) return false;
      const std::uint64_t room =
          limit > pipe.ingested ? limit - pipe.ingested : 0;
      if (allow < room) return false;
      allow = static_cast<std::size_t>(room);
      return true;
    };
    const bool willStall = capAt(pipe.faults.stallAfterBytes);
    const bool willTruncate = capAt(pipe.faults.truncateAfterBytes);
    if (allow > 0) {
      Chunk chunk;
      chunk.data.assign(buffer, allow);
      double delay = pipe.faults.latencySeconds;
      if (pipe.faults.jitterSeconds > 0) {
        delay += pipe.faults.jitterSeconds * u01(pipe.rngState);
      }
      chunk.releaseAt = now + delay;
      pipe.ingested += allow;
      pipe.queue.push_back(std::move(chunk));
    }
    if (willStall && !pipe.stalled) {
      pipe.stalled = true;
      ++stats_.stalled;
      logDebug() << "pscd_chaos: link " << link.index
                 << (clientSide ? " upstream" : " downstream")
                 << " stalled after " << pipe.ingested << " bytes";
    }
    if (willTruncate && !pipe.truncated) {
      pipe.truncated = true;
      ++stats_.truncated;
      logDebug() << "pscd_chaos: link " << link.index
                 << (clientSide ? " upstream" : " downstream")
                 << " truncating after " << pipe.ingested << " bytes";
    }
    if (clientSide && link.resetEnabled &&
        link.clientBytesIn >= config_.resetAfterClientBytes) {
      resetLink(linkId);
      return;
    }
    if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
  }
}

bool ChaosProxy::flushPipe(std::uint64_t linkId, bool upstream, double now) {
  Link& link = links_.at(linkId);
  Pipe& pipe = upstream ? link.up : link.down;
  const int dstFd = upstream ? link.serverFd : link.clientFd;
  while (!pipe.queue.empty() && !pipe.dstWantWrite) {
    Chunk& chunk = pipe.queue.front();
    if (now < chunk.releaseAt) break;
    std::size_t want = chunk.data.size() - chunk.sent;
    const double rate = pipe.faults.bytesPerSecond;
    const double slot = std::max(pipe.nextSendAt, chunk.releaseAt);
    if (rate > 0) {
      // Throttled: send every byte already due. A pass still ends at an
      // arbitrary byte, so the peer sees frames split anywhere.
      if (now < slot) break;
      want = static_cast<std::size_t>(std::min(
          static_cast<double>(want), std::floor((now - slot) * rate) + 1.0));
    }
    const ssize_t n =
        send(dstFd, chunk.data.data() + chunk.sent, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pipe.dstWantWrite = true;
        break;
      }
      if (errno == EINTR) continue;
      closeLink(linkId);
      return false;
    }
    chunk.sent += static_cast<std::size_t>(n);
    pipe.forwarded += static_cast<std::uint64_t>(n);
    (upstream ? stats_.bytesUpstream : stats_.bytesDownstream) +=
        static_cast<std::uint64_t>(n);
    if (rate > 0) pipe.nextSendAt = slot + static_cast<double>(n) / rate;
    if (chunk.sent == chunk.data.size()) pipe.queue.pop_front();
  }
  if (pipe.queue.empty() && (pipe.srcEof || pipe.truncated) &&
      !pipe.dstShutdown) {
    shutdown(dstFd, SHUT_WR);
    pipe.dstShutdown = true;
  }
  if (linkDone(link)) {
    closeLink(linkId);
    return false;
  }
  return true;
}

bool ChaosProxy::linkDone(const Link& link) {
  return link.up.dstShutdown && link.down.dstShutdown;
}

void ChaosProxy::updateInterest(Link& link, bool clientSide) {
  const int fd = clientSide ? link.clientFd : link.serverFd;
  const Pipe& srcPipe = clientSide ? link.up : link.down;  // fd as source
  const Pipe& dstPipe = clientSide ? link.down : link.up;  // fd as dest
  std::uint32_t events = 0;
  if (!srcPipe.srcEof && !srcPipe.stalled && !srcPipe.truncated) {
    events |= EPOLLIN;
  }
  if (dstPipe.dstWantWrite) events |= EPOLLOUT;
  std::uint32_t& current = clientSide ? link.clientEvents : link.serverEvents;
  if (events == current) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev);
  current = events;
}

void ChaosProxy::resetLink(std::uint64_t linkId) {
  const auto it = links_.find(linkId);
  if (it == links_.end()) return;
  Link& link = it->second;
  // SO_LINGER{on, 0} turns close() into an RST on both sides: the
  // client sees ECONNRESET mid-call and the daemon sees a read error.
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  for (const int fd : {link.clientFd, link.serverFd}) {
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  }
  ++stats_.resets;
  logDebug() << "pscd_chaos: link " << link.index << " reset after "
             << link.clientBytesIn << " client bytes";
  closeLink(linkId);
}

void ChaosProxy::closeLink(std::uint64_t linkId) {
  const auto it = links_.find(linkId);
  if (it == links_.end()) return;
  Link& link = it->second;
  for (const int fd : {link.clientFd, link.serverFd}) {
    if (fd < 0) continue;
    epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    fdIndex_.erase(fd);
  }
  links_.erase(it);
}

}  // namespace pscd::net
