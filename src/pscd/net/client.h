// Blocking wire-protocol client for the pscd serving tier.
//
// WireClient is deliberately simple: one TCP connection, synchronous
// call() that writes a frame and reads until the matching-seq RESPONSE
// arrives. The load harness gets concurrency by giving each worker its
// own WireClient (the daemon multiplexes them on one epoll loop); the
// loopback tests get determinism by issuing one call at a time.
//
// One call path: call(frame, options) applies a per-attempt deadline
// and bounded retries with exponential backoff, and returns a typed
// WireError outcome instead of an exception, so a load harness can
// account degraded operations (timeout / reset / shed) rather than
// dying on the first fault. The typed conveniences (subscribe, publish,
// ...) issue it with CallOptions{} and throw std::runtime_error unless
// the daemon answered; a call that finds the connection closed
// reconnects first.
//
// Retry safety: every attempt re-issues the operation under a FRESH seq
// on a fresh connection when the previous one was poisoned (timeout or
// reset closes the fd; the reconnect is counted). A late response to a
// timed-out seq can therefore never be mistaken for the retry's answer.
// Protocol errors are never retried — they mean the stream itself can't
// be trusted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "pscd/net/wire.h"
#include "pscd/util/types.h"

namespace pscd::net {

/// Typed outcome of a hardened call attempt.
enum class WireError : std::uint8_t {
  kNone = 0,
  /// The per-attempt deadline expired before a full RESPONSE arrived.
  kTimeout = 1,
  /// The connection dropped (RST, EOF mid-response, send failure, or a
  /// failed reconnect).
  kConnReset = 2,
  /// The daemon answered status=kOverloaded: the REQUEST was shed, not
  /// executed, and may be retried after a backoff.
  kOverloaded = 3,
  /// The stream is untrustworthy (undecodable bytes, wrong frame type,
  /// seq mismatch). Never retried.
  kProtocol = 4,
};

std::string_view wireErrorName(WireError error);

struct CallOptions {
  /// Per-attempt response deadline; 0 waits forever.
  double deadlineSeconds = 0.0;
  /// Extra attempts after the first on a retryable error (timeout,
  /// reset, overloaded).
  std::uint32_t retries = 0;
  /// Sleep before retry k (1-based) is backoffSeconds * 2^(k-1); 0
  /// retries immediately.
  double backoffSeconds = 0.0;
};

struct CallResult {
  WireError error = WireError::kNone;
  /// Valid when error is kNone or kOverloaded (an overloaded RESPONSE
  /// is a well-formed frame).
  ResponseBody response;
  /// Attempts consumed, counting the first (so 1 on a clean call).
  std::uint32_t attempts = 1;
  /// Human-readable detail for the failure (empty on success).
  std::string message;

  bool ok() const { return error == WireError::kNone; }
};

/// Counters across every hardened call on one client; each failed
/// attempt is classified exactly once.
struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t connResets = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t protocolErrors = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;

  friend bool operator==(const ClientStats&, const ClientStats&) = default;
};

class WireClient {
 public:
  /// Connects to host:port; `host` may be a dotted-quad IPv4 literal or
  /// a name resolvable to one ("localhost"). Throws std::runtime_error
  /// on resolution or connect failure. Sets TCP_NODELAY — the protocol
  /// is request/response, so Nagle only adds latency.
  WireClient(const std::string& host, std::uint16_t port);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&&) = delete;

  /// Sends `frame` (seq assigned internally, overriding frame.seq) and
  /// waits for the RESPONSE with that seq. Failures come back as a
  /// typed CallResult; retryable errors are re-issued (seq-safe, with
  /// reconnect) up to options.retries times.
  CallResult call(const WireFrame& frame, const CallOptions& options);

  // Typed conveniences: call(frame, CallOptions{}), throwing
  // std::runtime_error unless the daemon answered (an overloaded
  // RESPONSE is an answer).
  ResponseBody subscribe(ProxyId proxy, PageId page, std::uint32_t count = 1);
  ResponseBody unsubscribe(ProxyId proxy, PageId page,
                           std::uint32_t count = 1);
  ResponseBody publish(PageId page, Version version, Bytes size);
  ResponseBody request(ProxyId proxy, PageId page);

  /// Sends raw bytes as-is (tests use this to poke the daemon's error
  /// paths with malformed input, and to pipeline bursts).
  void sendRaw(const std::string& bytes);

  /// Reads the next frame off the connection regardless of seq, with a
  /// deadline (0 waits forever). Lets tests drain pipelined responses
  /// sent via sendRaw. On kNone, *out is the frame.
  WireError readResponse(double deadlineSeconds, WireFrame* out);

  /// True until the peer closes or an error poisons the connection.
  bool connected() const { return fd_ >= 0; }

  const ClientStats& stats() const { return stats_; }
  void resetStats() { stats_ = ClientStats{}; }

 private:
  /// Resolves host_ and establishes fd_; throws on failure.
  void connectSocket();
  /// connectSocket without the throw; counts the reconnect on success.
  bool reconnect(std::string* message);
  bool sendAllNoThrow(const std::string& bytes, std::string* message);
  /// call(frame, CallOptions{}), throwing unless the daemon answered.
  ResponseBody answer(const WireFrame& frame);
  /// One send + read-matching-response pass under a deadline.
  WireError attemptCall(const WireFrame& frame, double deadlineSeconds,
                        ResponseBody* response, std::string* message);
  /// Reads one frame; `deadline` is an absolute monotonicSeconds()
  /// time, or 0 for no deadline.
  WireError readFrame(double deadline, WireFrame* out, std::string* message);
  void close();

  int fd_ = -1;
  std::string host_;
  std::uint16_t port_ = 0;
  std::uint32_t nextSeq_ = 1;
  std::string in_;  // bytes received but not yet consumed by a decode
  ClientStats stats_;
};

}  // namespace pscd::net
