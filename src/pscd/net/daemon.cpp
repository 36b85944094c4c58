#include "pscd/net/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
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

#include "pscd/util/log.h"
#include "pscd/util/rng.h"

namespace pscd::net {

namespace {

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error("Daemon: " + what + ": " +
                           std::strerror(errno));
}

void setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throwErrno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

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
  field("input_overflows", s.inputOverflows);
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
  listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) throwErrno("socket");
  const int one = 1;
  if (setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    throwErrno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bindAddress.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("Daemon: bad bind address " +
                             config_.bindAddress);
  }
  if (bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throwErrno("bind");
  }
  if (listen(listenFd_, config_.backlog) < 0) throwErrno("listen");
  setNonBlocking(listenFd_);

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throwErrno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) throwErrno("epoll_create1");
  wakeFd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeFd_ < 0) throwErrno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listenFd_;
  if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) < 0) {
    throwErrno("epoll_ctl(listen)");
  }
  ev.data.fd = wakeFd_;
  if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) < 0) {
    throwErrno("epoll_ctl(wake)");
  }
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
  double wait = std::numeric_limits<double>::infinity();
  if (!wheel_.empty() || draining_) {
    const double now = clock_.now();
    if (!wheel_.empty()) wait = std::min(wait, wheel_.nextWakeSeconds(now));
    if (draining_) wait = std::min(wait, drainDeadline_ - now);
  }
  if (!std::isfinite(wait)) return -1;  // fault-free default: block
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
    if (!wheel_.empty()) reapExpired(clock_.now());
  }
  closeAll();
}

void Daemon::armDeadline(Connection& conn) {
  double d = std::numeric_limits<double>::infinity();
  if (config_.writeTimeoutSeconds > 0 && conn.writePending) {
    d = std::min(d, conn.writePendingSince + config_.writeTimeoutSeconds);
  }
  if (config_.readTimeoutSeconds > 0 && !conn.in.empty()) {
    d = std::min(d, conn.lastActivity + config_.readTimeoutSeconds);
  }
  if (config_.idleTimeoutSeconds > 0) {
    d = std::min(d, conn.lastActivity + config_.idleTimeoutSeconds);
  }
  conn.deadline = d;
  // Lazy wheel discipline: schedule only when the deadline moved
  // earlier than the earliest live entry; extensions ride the old entry,
  // whose expiry re-validates against conn.deadline and re-arms.
  if (std::isfinite(d) && (!conn.wheelArmed || d < conn.wheelDeadline)) {
    wheel_.schedule(conn.fd, d);
    conn.wheelDeadline = d;
    conn.wheelArmed = true;
  }
}

void Daemon::reapExpired(double now) {
  expiredScratch_.clear();
  wheel_.collectExpired(now, &expiredScratch_);
  for (const int fd : expiredScratch_) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // stale entry for a closed fd
    Connection& conn = it->second;
    conn.wheelArmed = false;  // this entry is consumed
    if (!std::isfinite(conn.deadline)) continue;
    if (conn.deadline > now) {
      // Activity pushed the deadline out (or the wheel wrapped a
      // far-future one): re-arm and move on.
      wheel_.schedule(fd, conn.deadline);
      conn.wheelDeadline = conn.deadline;
      conn.wheelArmed = true;
      continue;
    }
    // Classify the reap, most-specific first: an unflushable response
    // backlog beats a half-read frame beats plain silence.
    const char* kind = nullptr;
    if (config_.writeTimeoutSeconds > 0 && conn.writePending &&
        now >= conn.writePendingSince + config_.writeTimeoutSeconds) {
      ++stats_.writeTimeouts;
      kind = "write deadline";
    } else if (config_.readTimeoutSeconds > 0 && !conn.in.empty()) {
      ++stats_.readTimeouts;
      kind = "read deadline";
    } else {
      ++stats_.idleTimeouts;
      kind = "idle deadline";
    }
    logDebug() << "pscd_daemon: closing fd " << fd << ": " << kind
               << " expired";
    closeConnection(fd);
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
    Connection conn;
    conn.fd = fd;
    if (timersEnabled_) conn.lastActivity = clock_.now();
    const auto [it, inserted] = conns_.emplace(fd, std::move(conn));
    ++stats_.accepted;
    if (timersEnabled_) armDeadline(it->second);
  }
}

void Daemon::handleReadable(Connection& conn) {
  char buffer[65536];
  bool gotBytes = false;
  while (true) {
    const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      gotBytes = true;
      conn.in.append(buffer, static_cast<std::size_t>(n));
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
  if (!processInput(conn)) return;
  if (!flushWrites(conn)) return;
  if (timersEnabled_) armDeadline(conn);
}

bool Daemon::processInput(Connection& conn) {
  std::size_t offset = 0;
  std::size_t framesInBatch = 0;
  while (offset < conn.in.size()) {
    const DecodeResult r = decodeFrame(
        reinterpret_cast<const std::uint8_t*>(conn.in.data()) + offset,
        conn.in.size() - offset);
    if (r.status == DecodeStatus::kNeedMore) break;
    if (r.status == DecodeStatus::kError) {
      ++stats_.decodeErrors;
      logWarn() << "pscd_daemon: closing fd " << conn.fd << ": " << r.error;
      closeConnection(conn.fd);
      return false;
    }
    offset += r.consumed;
    if (r.frame.type() == FrameType::kResponse) {
      ++stats_.protocolErrors;
      logWarn() << "pscd_daemon: closing fd " << conn.fd
                << ": client sent RESPONSE";
      closeConnection(conn.fd);
      return false;
    }
    ++stats_.framesHandled;
    WireFrame reply;
    reply.seq = r.frame.seq;
    // Load shedding: past the threshold within one input drain, answer
    // REQUESTs with kOverloaded in constant time instead of executing
    // them. State-mutating frames always execute — shedding those would
    // silently fork client and server subscription state.
    if (config_.shedThreshold > 0 && r.frame.type() == FrameType::kRequest &&
        framesInBatch >= config_.shedThreshold) {
      ResponseBody overloaded;
      overloaded.op = static_cast<std::uint8_t>(FrameType::kRequest);
      overloaded.status =
          static_cast<std::uint8_t>(ResponseStatus::kOverloaded);
      reply.body = overloaded;
      ++stats_.overloadShed;
    } else {
      reply.body = dispatch(r.frame);
    }
    ++framesInBatch;
    encodeFrame(reply, &conn.out);
    if (conn.out.size() - conn.outFlushed > config_.maxOutBufferBytes) {
      logWarn() << "pscd_daemon: closing fd " << conn.fd
                << ": response backlog over "
                << config_.maxOutBufferBytes << " bytes";
      closeConnection(conn.fd);
      return false;
    }
  }
  conn.in.erase(0, offset);
  if (conn.in.size() > config_.maxInBufferBytes) {
    ++stats_.inputOverflows;
    logWarn() << "pscd_daemon: closing fd " << conn.fd << ": "
              << conn.in.size() << " undecodable buffered bytes over the "
              << config_.maxInBufferBytes << "-byte cap";
    closeConnection(conn.fd);
    return false;
  }
  return true;
}

ResponseBody Daemon::dispatch(const WireFrame& frame) {
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
        break;  // rejected by processInput before dispatch
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
  while (conn.outFlushed < conn.out.size()) {
    const ssize_t n =
        send(conn.fd, conn.out.data() + conn.outFlushed,
             conn.out.size() - conn.outFlushed, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.outFlushed += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (timersEnabled_ && !conn.writePending) {
        conn.writePending = true;
        conn.writePendingSince = clock_.now();
        armDeadline(conn);
      }
      if (!conn.wantWrite) {
        conn.wantWrite = true;
        return updateInterest(conn);
      }
      return true;
    }
    if (errno == EINTR) continue;
    closeConnection(conn.fd);
    return false;
  }
  conn.out.clear();
  conn.outFlushed = 0;
  if (conn.writePending) {
    conn.writePending = false;
    if (timersEnabled_) armDeadline(conn);
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

void Daemon::closeConnection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (draining_ && it->second.outFlushed == it->second.out.size()) {
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
