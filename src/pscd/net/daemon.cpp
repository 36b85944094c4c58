#include "pscd/net/daemon.h"

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
#include <vector>

#include "pscd/net/socket.h"
#include "pscd/util/rng.h"

namespace pscd::net {

std::string formatDaemonStats(const DaemonStats& s) {
  std::string out = "stats:";
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("accepted", s.accepted);
  field("accept_rejected", s.acceptRejected);
  field("closed", s.closed);
  field("frames", s.framesHandled);
  field("decode_errors", s.decodeErrors);
  field("protocol_errors", s.protocolErrors);
  field("error_responses", s.errorResponses);
  field("idle_timeouts", s.idleTimeouts);
  field("read_timeouts", s.readTimeouts);
  field("write_timeouts", s.writeTimeouts);
  field("overload_shed", s.overloadShed);
  field("drain_flushed", s.drainFlushed);
  return out;
}

Daemon::Daemon(DistributionService& service, const Clock& clock,
               const DaemonConfig& config)
    : service_(service), clock_(clock), config_(config) {
  if (config_.idleTimeoutSeconds < 0 || config_.readTimeoutSeconds < 0 ||
      config_.writeTimeoutSeconds < 0 || config_.drainSeconds < 0) {
    throw std::invalid_argument("Daemon: negative timeout in config");
  }
  timersEnabled_ = config_.idleTimeoutSeconds > 0 ||
                   config_.readTimeoutSeconds > 0 ||
                   config_.writeTimeoutSeconds > 0;
  const ServerFds fds =
      openServerFds("Daemon", config_.bindAddress, config_.port);
  listenFd_ = fds.listenFd;
  epollFd_ = fds.epollFd;
  wakeFd_ = fds.wakeFd;
  port_ = fds.port;
}

Daemon::~Daemon() {
  closeAll();
  ::close(wakeFd_);
}

void Daemon::closeAll() {
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    ++stats_.closed;
  }
  conns_.clear();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (epollFd_ >= 0) {
    ::close(epollFd_);
    epollFd_ = -1;
  }
}

void Daemon::wakeLoop() {
  const std::uint64_t one = 1;
  // Best-effort: the loop also rechecks the mode on every wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void Daemon::stop() {
  stopMode_.store(kStopNow, std::memory_order_release);
  wakeLoop();
}

void Daemon::stopDrain() {
  // Only an idle->drain transition: never downgrade a hard stop.
  int expected = kRunning;
  stopMode_.compare_exchange_strong(expected, kStopDrain,
                                    std::memory_order_acq_rel);
  wakeLoop();
}

void Daemon::requestStatsDump() {
  dumpRequested_.store(true, std::memory_order_release);
  wakeLoop();
}

void Daemon::beginDrain() {
  draining_ = true;
  drainDeadline_ = clock_.now() + config_.drainSeconds;
  // Stop accepting but keep the fd so the port stays reserved until
  // run() returns.
  if (listenFd_ >= 0) {
    epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
  }
  logInfo() << "pscd_daemon: draining " << conns_.size()
            << " connection(s), budget " << config_.drainSeconds << "s";
}

int Daemon::computeWaitMs() {
  const double wakeAt =
      draining_ ? std::min(nextDeadline_, drainDeadline_) : nextDeadline_;
  if (!std::isfinite(wakeAt)) return -1;  // fault-free default: block
  const double wait = wakeAt - clock_.now();
  if (wait <= 0.0) return 0;
  const double ms = std::ceil(wait * 1000.0);
  return ms >= 60000.0 ? 60000 : static_cast<int>(ms);
}

void Daemon::run() {
  if (ran_) throw std::logic_error("Daemon::run called twice");
  ran_ = true;
  std::vector<epoll_event> events(64);
  while (true) {
    const int mode = stopMode_.load(std::memory_order_acquire);
    if (mode == kStopNow) break;
    if (mode == kStopDrain && !draining_) beginDrain();
    if (draining_ &&
        (conns_.empty() || clock_.now() >= drainDeadline_)) {
      break;
    }
    const int n = epoll_wait(epollFd_, events.data(),
                             static_cast<int>(events.size()),
                             computeWaitMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      logError() << "pscd_daemon: epoll_wait: " << std::strerror(errno);
      break;
    }
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
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Connection& conn = it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        closeConnection(fd);
        continue;
      }
      if ((mask & EPOLLOUT) != 0 && !flushWrites(conn)) continue;
      if ((mask & EPOLLIN) != 0) handleReadable(conn);
    }
    if (dumpRequested_.exchange(false, std::memory_order_acq_rel)) {
      logInfo() << "pscd_daemon: " << formatDaemonStats(stats_);
    }
    if (std::isfinite(nextDeadline_)) {
      const double now = clock_.now();
      if (now >= nextDeadline_) reapExpired(now);
    }
  }
  closeAll();
}

double Daemon::deadlineOf(const Connection& conn) const {
  double d = std::numeric_limits<double>::infinity();
  if (config_.writeTimeoutSeconds > 0 && conn.wantWrite) {
    d = std::min(d, conn.writePendingSince + config_.writeTimeoutSeconds);
  }
  if (config_.readTimeoutSeconds > 0 && conn.session.buffered() > 0) {
    d = std::min(d, conn.lastActivity + config_.readTimeoutSeconds);
  }
  if (config_.idleTimeoutSeconds > 0) {
    d = std::min(d, conn.lastActivity + config_.idleTimeoutSeconds);
  }
  return d;
}

void Daemon::reapExpired(double now) {
  nextDeadline_ = std::numeric_limits<double>::infinity();
  for (auto it = conns_.begin(); it != conns_.end();) {
    const Connection& conn = it->second;
    const double deadline = deadlineOf(conn);
    if (deadline > now) {
      nextDeadline_ = std::min(nextDeadline_, deadline);
      ++it;
      continue;
    }
    // Classify the reap, most-specific first: an unflushable response
    // backlog beats a half-read frame beats plain silence.
    const char* kind = nullptr;
    if (config_.writeTimeoutSeconds > 0 && conn.wantWrite &&
        now >= conn.writePendingSince + config_.writeTimeoutSeconds) {
      ++stats_.writeTimeouts;
      kind = "write deadline expired";
    } else if (config_.readTimeoutSeconds > 0 && conn.session.buffered() > 0 &&
               now >= conn.lastActivity + config_.readTimeoutSeconds) {
      ++stats_.readTimeouts;
      kind = "read deadline expired";
    } else {
      ++stats_.idleTimeouts;
      kind = "idle deadline expired";
    }
    const int fd = it->first;
    ++it;  // closeConnection erases the entry
    closeConnection(fd, kind, LogLevel::kDebug);
  }
}

void Daemon::acceptConnections() {
  while (true) {
    const int fd = accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      logWarn() << "pscd_daemon: accept: " << std::strerror(errno);
      return;
    }
    if (conns_.size() >= config_.maxConnections) {
      ++stats_.acceptRejected;
      ::close(fd);
      continue;
    }
    const int one = 1;
    // Best-effort: latency optimization, not correctness.
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.sendBufferBytes > 0) {
      // Best-effort: the kernel clamps to its floor, which is exactly
      // what the write-deadline tests want (a tiny send window).
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sendBufferBytes,
                 sizeof(config_.sendBufferBytes));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    Connection conn{fd, Session(service_, clock_, stats_,
                                config_.shedThreshold)};
    if (timersEnabled_) {
      conn.lastActivity = clock_.now();
      nextDeadline_ = std::min(nextDeadline_, deadlineOf(conn));
    }
    conns_.emplace(fd, std::move(conn));
    ++stats_.accepted;
  }
}

void Daemon::handleReadable(Connection& conn) {
  char buffer[65536];
  bool gotBytes = false;
  conn.session.beginRead();
  while (true) {
    const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      gotBytes = true;
      const std::optional<std::string> why = conn.session.receive(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      if (why) {
        closeConnection(conn.fd, *why);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {  // orderly EOF from the client
      closeConnection(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(conn.fd);
    return;
  }
  if (timersEnabled_ && gotBytes) conn.lastActivity = clock_.now();
  if (timersEnabled_ && conn.session.buffered() > 0) {
    // A partial frame arms the read deadline, which may fall first.
    nextDeadline_ = std::min(nextDeadline_, deadlineOf(conn));
  }
  flushWrites(conn);
}

/// A session whose unsent response backlog exceeds this is a slow
/// reader and is closed rather than buffering without bound.
constexpr std::size_t kMaxOutBufferBytes = 4u << 20;

std::optional<std::string> Session::receive(std::string_view chunk) {
  in_.append(chunk);
  std::optional<std::string> why;
  std::size_t offset = 0;
  while (offset < in_.size()) {
    DecodeResult r = decodeFrame(std::string_view(in_).substr(offset));
    if (r.status == DecodeStatus::kNeedMore) break;
    if (r.status == DecodeStatus::kError) {
      ++stats_.decodeErrors;
      why = std::move(r.error);
      break;
    }
    offset += r.consumed;
    if (r.frame.type() == FrameType::kResponse) {
      ++stats_.protocolErrors;
      why = "client sent RESPONSE";
      break;
    }
    ++stats_.framesHandled;
    WireFrame reply;
    reply.seq = r.frame.seq;
    // Load shedding: past the threshold within one readable event,
    // answer REQUESTs with kOverloaded in constant time instead of
    // executing them. State-mutating frames always execute — shedding
    // those would silently fork client and server subscription state.
    if (shedThreshold_ > 0 && r.frame.type() == FrameType::kRequest &&
        framesThisRead_ >= shedThreshold_) {
      reply.body = ResponseBody{
          .status = static_cast<std::uint8_t>(ResponseStatus::kOverloaded),
          .op = static_cast<std::uint8_t>(FrameType::kRequest)};
      ++stats_.overloadShed;
    } else {
      reply.body = dispatch(r.frame);
    }
    ++framesThisRead_;
    encodeFrame(reply, &out_);
    if (out_.size() - sent_ > kMaxOutBufferBytes) {
      why = "response backlog over " + std::to_string(kMaxOutBufferBytes) +
            " bytes";
      break;
    }
  }
  // A closing session keeps nothing; an open one keeps its partial frame.
  in_.erase(0, why ? in_.size() : offset);
  return why;
}

void Session::markSent(std::size_t n) {
  sent_ += n;
  if (sent_ < out_.size()) return;
  out_.clear();
  sent_ = 0;
}

ResponseBody Session::dispatch(const WireFrame& frame) {
  ResponseBody response;
  response.op = static_cast<std::uint8_t>(frame.type());
  try {
    switch (frame.type()) {
      case FrameType::kSubscribe: {
        const auto& b = std::get<SubscribeBody>(frame.body);
        service_.broker().subscribeAggregated(b.proxy, b.page, b.count);
        break;
      }
      case FrameType::kUnsubscribe: {
        const auto& b = std::get<UnsubscribeBody>(frame.body);
        response.pages =
            service_.broker().unsubscribeAggregated(b.proxy, b.page, b.count);
        break;
      }
      case FrameType::kPublish: {
        const auto& b = std::get<PublishBody>(frame.body);
        const PushDelivery d = service_.handlePublish(
            PublishEvent{clock_.now(), b.page, b.version, b.size});
        response.pages = d.pages;
        response.bytes = d.bytes;
        break;
      }
      case FrameType::kRequest: {
        const auto& b = std::get<RequestBody>(frame.body);
        const RequestDelivery d = service_.handleRequest(b.proxy, b.page);
        response.hit = d.hit ? 1 : 0;
        response.stale = d.stale ? 1 : 0;
        response.bytes = d.bytesTransferred;
        response.responseTimeMs = d.responseTimeMs;
        break;
      }
      case FrameType::kResponse:
        break;  // rejected by receive() before dispatch
    }
  } catch (const std::exception& e) {
    // A failed operation answers with status=kError and zeroed payload;
    // the connection (and the service's consistent state) live on.
    response = ResponseBody{};
    response.op = static_cast<std::uint8_t>(frame.type());
    response.status = static_cast<std::uint8_t>(ResponseStatus::kError);
    ++stats_.errorResponses;
    logDebug() << "pscd_daemon: " << frameTypeName(frame.type())
               << " failed: " << e.what();
  }
  return response;
}

bool Daemon::flushWrites(Connection& conn) {
  while (!conn.session.unsent().empty()) {
    const std::string_view out = conn.session.unsent();
    const ssize_t n = send(conn.fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n >= 0) {
      conn.session.markSent(static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (conn.wantWrite) return true;
      conn.wantWrite = true;
      if (timersEnabled_) {
        conn.writePendingSince = clock_.now();
        nextDeadline_ = std::min(nextDeadline_, deadlineOf(conn));
      }
      return updateInterest(conn);
    }
    if (errno == EINTR) continue;
    closeConnection(conn.fd);
    return false;
  }
  if (conn.wantWrite) {
    conn.wantWrite = false;
    return updateInterest(conn);
  }
  return true;
}

bool Daemon::updateInterest(Connection& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.wantWrite ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  if (epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev) < 0) {
    closeConnection(conn.fd);
    return false;
  }
  return true;
}

void Daemon::closeConnection(int fd, std::string_view why, LogLevel level) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (!why.empty()) {
    logMessage(level, "pscd_daemon: closing fd " + std::to_string(fd) +
                          ": " + std::string(why));
  }
  if (draining_ && it->second.session.unsent().empty()) {
    // The drain delivered this connection's in-flight responses before
    // it closed — the whole point of stopDrain() over stop().
    ++stats_.drainFlushed;
  }
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  ++stats_.closed;
}

Network ServeHost::buildNetwork(const ServeHostConfig& config) {
  NetworkParams params;
  params.numProxies = config.numProxies;
  params.numTransitNodes = config.numTransitNodes;
  Rng rng(config.networkSeed);
  return Network(params, rng);
}

ServiceConfig ServeHost::buildServiceConfig(const ServeHostConfig& config) {
  ServiceConfig service;
  service.engine.strategy = config.strategy;
  service.engine.beta = config.beta;
  service.engine.pushScheme = config.pushScheme;
  service.engine.proxyCapacities.assign(config.numProxies,
                                        config.capacityPerProxy);
  service.latency = config.latency;
  return service;
}

ServeHost::ServeHost(const ServeHostConfig& config,
                     const DaemonConfig& daemonConfig)
    : network_(buildNetwork(config)),
      service_(network_, clock_, sink_, buildServiceConfig(config)),
      daemon_(service_, clock_, daemonConfig) {}

}  // namespace pscd::net
