#include "pscd/net/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "pscd/net/socket.h"
#include "pscd/util/wallclock.h"

namespace pscd::net {

std::string_view wireErrorName(WireError error) {
  switch (error) {
    case WireError::kNone:
      return "none";
    case WireError::kTimeout:
      return "timeout";
    case WireError::kConnReset:
      return "conn_reset";
    case WireError::kOverloaded:
      return "overloaded";
    case WireError::kProtocol:
      return "protocol";
  }
  return "?";
}

WireClient::WireClient(const std::string& host, std::uint16_t port)
    : host_(host), port_(port) {
  connectSocket();
}

WireClient::~WireClient() { close(); }

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      nextSeq_(other.nextSeq_),
      in_(std::move(other.in_)),
      stats_(other.stats_) {
  other.fd_ = -1;
}

void WireClient::connectSocket() {
  const int fd = dialFirst(resolveIpv4(host_, port_));
  if (fd < 0) {
    const int err = errno;
    throw std::runtime_error("WireClient: connect to " + host_ + ":" +
                             std::to_string(port_) + ": " +
                             std::strerror(err));
  }
  fd_ = fd;
  in_.clear();
}

bool WireClient::reconnect(std::string* message) {
  try {
    connectSocket();
  } catch (const std::exception& e) {
    *message = e.what();
    return false;
  }
  ++stats_.reconnects;
  return true;
}

void WireClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool WireClient::sendAllNoThrow(const std::string& bytes,
                                std::string* message) {
  if (fd_ < 0) {
    *message = "send on closed client";
    return false;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *message = std::string("send: ") + std::strerror(errno);
      close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void WireClient::sendRaw(const std::string& bytes) {
  std::string message;
  if (!sendAllNoThrow(bytes, &message)) {
    throw std::runtime_error("WireClient: " + message);
  }
}

WireError WireClient::readFrame(double deadline, WireFrame* out,
                                std::string* message) {
  char buf[4096];
  while (true) {
    const DecodeResult result = decodeFrame(in_);
    if (result.status == DecodeStatus::kError) {
      close();
      *message = "undecodable response: " + result.error;
      return WireError::kProtocol;
    }
    if (result.status == DecodeStatus::kOk) {
      in_.erase(0, result.consumed);
      *out = result.frame;
      return WireError::kNone;
    }
    if (fd_ < 0) {
      *message = "connection closed";
      return WireError::kConnReset;
    }
    if (deadline > 0) {
      const double remaining = deadline - monotonicSeconds();
      if (remaining <= 0) {
        // The response may still arrive later on this connection, so
        // poison it: a retry must re-issue on a fresh seq + socket.
        close();
        *message = "deadline exceeded waiting for response";
        return WireError::kTimeout;
      }
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const double ms = std::ceil(remaining * 1000.0);
      const int timeoutMs = ms >= 60000.0 ? 60000 : static_cast<int>(ms);
      const int pr = ::poll(&pfd, 1, timeoutMs < 1 ? 1 : timeoutMs);
      if (pr < 0) {
        if (errno == EINTR) continue;
        *message = std::string("poll: ") + std::strerror(errno);
        close();
        return WireError::kConnReset;
      }
      if (pr == 0) continue;  // re-check the deadline at the loop top
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      *message = std::string("recv: ") + std::strerror(errno);
      close();
      return WireError::kConnReset;
    }
    if (n == 0) {
      close();
      *message = "connection closed by server mid-response";
      return WireError::kConnReset;
    }
    in_.append(buf, static_cast<std::size_t>(n));
  }
}

WireError WireClient::readResponse(double deadlineSeconds, WireFrame* out) {
  std::string message;
  const double deadline =
      deadlineSeconds > 0 ? monotonicSeconds() + deadlineSeconds : 0.0;
  return readFrame(deadline, out, &message);
}

WireError WireClient::attemptCall(const WireFrame& frame,
                                  double deadlineSeconds,
                                  ResponseBody* response,
                                  std::string* message) {
  if (fd_ < 0 && !reconnect(message)) return WireError::kConnReset;
  WireFrame out = frame;
  out.seq = nextSeq_++;
  if (!sendAllNoThrow(encodeFrame(out), message)) {
    return WireError::kConnReset;
  }
  const double deadline =
      deadlineSeconds > 0 ? monotonicSeconds() + deadlineSeconds : 0.0;
  WireFrame reply;
  const WireError err = readFrame(deadline, &reply, message);
  if (err != WireError::kNone) return err;
  if (reply.type() != FrameType::kResponse) {
    close();
    *message = std::string("unexpected ") +
               std::string(frameTypeName(reply.type())) +
               " frame from server";
    return WireError::kProtocol;
  }
  if (reply.seq != out.seq) {
    close();
    *message = "response seq " + std::to_string(reply.seq) +
               " does not match request seq " + std::to_string(out.seq);
    return WireError::kProtocol;
  }
  *response = std::get<ResponseBody>(reply.body);
  if (response->overloaded()) {
    *message = "server overloaded";
    return WireError::kOverloaded;
  }
  return WireError::kNone;
}

CallResult WireClient::call(const WireFrame& frame,
                            const CallOptions& options) {
  ++stats_.calls;
  CallResult result;
  const std::uint32_t maxAttempts = options.retries + 1;
  for (std::uint32_t attempt = 1; attempt <= maxAttempts; ++attempt) {
    if (attempt > 1) {
      ++stats_.retries;
      if (options.backoffSeconds > 0) {
        sleepSeconds(options.backoffSeconds *
                     std::ldexp(1.0, static_cast<int>(attempt) - 2));
      }
    }
    result.attempts = attempt;
    result.message.clear();
    result.error = attemptCall(frame, options.deadlineSeconds,
                               &result.response, &result.message);
    switch (result.error) {
      case WireError::kNone:
        return result;
      case WireError::kTimeout:
        ++stats_.timeouts;
        break;
      case WireError::kConnReset:
        ++stats_.connResets;
        break;
      case WireError::kOverloaded:
        ++stats_.overloaded;
        break;
      case WireError::kProtocol:
        ++stats_.protocolErrors;
        return result;  // the stream can't be trusted: never retry
    }
  }
  return result;
}

ResponseBody WireClient::answer(const WireFrame& frame) {
  const CallResult result = call(frame, CallOptions{});
  // An overloaded RESPONSE is a well-formed answer: hand it back like
  // any other status.
  if (!result.ok() && result.error != WireError::kOverloaded) {
    throw std::runtime_error("WireClient: " + result.message);
  }
  return result.response;
}

ResponseBody WireClient::subscribe(ProxyId proxy, PageId page,
                                   std::uint32_t count) {
  return answer({0, SubscribeBody{proxy, page, count}});
}

ResponseBody WireClient::unsubscribe(ProxyId proxy, PageId page,
                                     std::uint32_t count) {
  return answer({0, UnsubscribeBody{proxy, page, count}});
}

ResponseBody WireClient::publish(PageId page, Version version, Bytes size) {
  return answer({0, PublishBody{page, version, size}});
}

ResponseBody WireClient::request(ProxyId proxy, PageId page) {
  return answer({0, RequestBody{proxy, page}});
}

}  // namespace pscd::net
