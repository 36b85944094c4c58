// The networked pscd serving tier: a single-threaded epoll loop
// (Daemon) owns the sockets and drives one Session per connection; the
// Session runs the wire protocol against a DistributionService behind
// the WireClock/WireSink seam, the decision layer the simulator drives
// (core/runtime.h, DESIGN.md §13).
//
// Threading: the loop runs on the thread that calls run(); stop() is
// the one cross-thread entry point (an atomic plus an eventfd wake).
// Every other fd is closed by the time run() returns. The eventfd lives
// until the destructor, so a stop() racing run()'s return never writes
// to a reused fd number. A destroyed daemon holds no kernel resources
// (the loopback test counts /proc/self/fd entries to prove it).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "pscd/cache/strategy_factory.h"
#include "pscd/core/service.h"
#include "pscd/net/wire.h"
#include "pscd/net/wire_runtime.h"
#include "pscd/topology/network.h"
#include "pscd/util/log.h"
#include "pscd/util/types.h"

namespace pscd::net {

struct DaemonConfig {
  std::string bindAddress = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available via Daemon::port().
  std::uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed
  /// (counted in DaemonStats::acceptRejected).
  std::size_t maxConnections = 1024;
  // Connection deadlines (DESIGN.md §14); 0 disables each reaper.
  // With all three at 0 (the default) the daemon takes no extra clock
  // reads and behaves bit-identically to the pre-hardening loop.
  /// Close a connection with no read activity for this long.
  double idleTimeoutSeconds = 0.0;
  /// Close a connection holding a partial frame (slow loris) for this
  /// long without completing it.
  double readTimeoutSeconds = 0.0;
  /// Close a connection whose responses cannot be flushed for this
  /// long (slow reader with a full socket buffer).
  double writeTimeoutSeconds = 0.0;
  /// Load shedding: when > 0, a REQUEST decoded with this many frames
  /// already dispatched ahead of it in the same readable event is
  /// answered with status=kOverloaded instead of being executed —
  /// constant-time rejection under a pipelined burst. State-mutating
  /// frames (SUBSCRIBE/UNSUBSCRIBE/PUBLISH) are never shed. 0 disables.
  std::size_t shedThreshold = 0;
  /// Drain budget for stopDrain(): stop accepting, keep serving live
  /// connections until they close (or this deadline), then exit.
  double drainSeconds = 5.0;
  /// When > 0, SO_SNDBUF for accepted connections (tests use the
  /// kernel minimum to provoke write-deadline reaping deterministically).
  int sendBufferBytes = 0;
};

struct DaemonStats {
  std::uint64_t accepted = 0;
  /// Connections accepted and immediately closed at maxConnections.
  std::uint64_t acceptRejected = 0;
  std::uint64_t closed = 0;
  std::uint64_t framesHandled = 0;
  /// Connections dropped for undecodable input.
  std::uint64_t decodeErrors = 0;
  /// Well-formed frames the protocol forbids here (a client sending
  /// RESPONSE); also close their connection.
  std::uint64_t protocolErrors = 0;
  /// Operations answered with status=kError (connection kept).
  std::uint64_t errorResponses = 0;
  /// Connections reaped by the idle deadline.
  std::uint64_t idleTimeouts = 0;
  /// Connections reaped holding an incomplete frame past the read
  /// deadline (slow loris).
  std::uint64_t readTimeouts = 0;
  /// Connections reaped with unflushable responses past the write
  /// deadline (slow reader).
  std::uint64_t writeTimeouts = 0;
  /// REQUEST frames answered status=kOverloaded by the load shedder
  /// (the connection lives; the frame still counts in framesHandled).
  std::uint64_t overloadShed = 0;
  /// Connections that closed during a drain with every queued response
  /// flushed — the drain delivered their in-flight work.
  std::uint64_t drainFlushed = 0;

  friend bool operator==(const DaemonStats&, const DaemonStats&) = default;
};

/// One-line human-readable rendering (the pscd_daemon SIGUSR1 / exit
/// stats dump, and gtest failure messages).
std::string formatDaemonStats(const DaemonStats& stats);

/// One connection's wire protocol without the socket; it needs only a
/// service, a clock and the stats it counts into:
///
///   receive(chunk) --> decode --kOk--> dispatch --> RESPONSE in unsent()
///                        |                  |
///     kError, or a client RESPONSE          backlog over 4 MiB
///                        +----> close, with the reason
///
/// Malformed bytes never resynchronize, so they close the session; a
/// well-formed frame whose operation fails (unknown page, out-of-range
/// proxy) gets a status=kError RESPONSE and the session lives on.
/// decodeFrame rejects a header whose body length is not its type's, so
/// after every receive() less than one frame (kWireHeaderBytes + 28
/// bytes) stays buffered.
class Session {
 public:
  Session(DistributionService& service, const Clock& clock,
          DaemonStats& stats, std::size_t shedThreshold)
      : service_(service), clock_(clock), stats_(stats),
        shedThreshold_(shedThreshold) {}

  /// Starts one readable event: the load shedder counts from here.
  void beginRead() { framesThisRead_ = 0; }

  /// Decodes and answers every frame `chunk` completes. Returns
  /// std::nullopt to keep the connection, or why it must close.
  std::optional<std::string> receive(std::string_view chunk);

  /// Undecoded input bytes: a partial frame or nothing.
  std::size_t buffered() const { return in_.size(); }
  /// Encoded RESPONSEs not yet sent.
  std::string_view unsent() const {
    return std::string_view(out_).substr(sent_);
  }
  /// Drops the first `n` bytes of unsent() once the peer has them.
  void markSent(std::size_t n);

 private:
  ResponseBody dispatch(const WireFrame& frame);

  DistributionService& service_;
  const Clock& clock_;
  DaemonStats& stats_;
  std::size_t shedThreshold_;
  std::size_t framesThisRead_ = 0;
  std::string in_;
  std::string out_;
  std::size_t sent_ = 0;  // prefix of out_ already sent
};

class Daemon {
 public:
  /// Binds and listens immediately (throws std::runtime_error with the
  /// errno string on any socket failure), but serves only once run() is
  /// called. `service` must have been built against `clock`.
  Daemon(DistributionService& service, const Clock& clock,
         const DaemonConfig& config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The locally bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  /// Serves until stop(); callable once. Closes every fd but the wake
  /// eventfd before returning.
  void run();

  /// Thread-safe shutdown request; run() returns promptly, abandoning
  /// any unflushed responses. Overrides an in-progress drain.
  void stop();

  /// Thread-safe graceful shutdown: stop accepting, keep serving the
  /// live connections until every one closes (or drainSeconds elapses),
  /// then return from run(). A later stop() still cuts the drain short;
  /// stopDrain() after stop() is a no-op.
  void stopDrain();

  /// Thread-safe (and async-signal-safe modulo the atomic store +
  /// eventfd write) request for the loop to log formatDaemonStats(),
  /// wired to SIGUSR1 in pscd_daemon.
  void requestStatsDump();

  /// Stable to read after run() returns (or between frames from the
  /// loop thread itself).
  const DaemonStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    Session session;
    bool wantWrite = false;      // unsent output is waiting on EPOLLOUT
    double lastActivity = 0.0;   // clock_ time of the last read bytes
    double writePendingSince = 0.0;  // clock_ time wantWrite was set
  };

  enum StopMode { kRunning = 0, kStopDrain = 1, kStopNow = 2 };

  void acceptConnections();
  void handleReadable(Connection& conn);
  /// Returns false when the connection was closed.
  bool flushWrites(Connection& conn);
  /// Returns false when re-arming failed and the connection was closed.
  bool updateInterest(Connection& conn);
  /// Closes one live connection, logging a non-empty `why` at `level`.
  void closeConnection(int fd, std::string_view why = {},
                       LogLevel level = LogLevel::kWarn);
  void closeAll();
  /// The earliest of conn's armed deadlines (write, read, idle); +inf
  /// when none applies.
  double deadlineOf(const Connection& conn) const;
  /// Closes every connection whose deadline has passed, classifying the
  /// reap (write > read > idle) into DaemonStats, and resets
  /// nextDeadline_ to the earliest deadline left.
  void reapExpired(double now);
  /// epoll_wait timeout honoring nextDeadline_ and the drain deadline;
  /// -1 when neither is pending (the fault-free default).
  int computeWaitMs();
  void beginDrain();
  void wakeLoop();

  DistributionService& service_;
  const Clock& clock_;
  DaemonConfig config_;
  DaemonStats stats_;
  std::uint16_t port_ = 0;
  int listenFd_ = -1;
  int epollFd_ = -1;
  /// Set by the constructor and closed by the destructor, never changed
  /// in between, so stop() may read it from any thread.
  int wakeFd_ = -1;
  bool ran_ = false;
  bool timersEnabled_ = false;
  bool draining_ = false;
  double drainDeadline_ = 0.0;
  /// Never later than any connection's deadline: lowered whenever one
  /// can move earlier, left alone when activity pushes one later, and
  /// recomputed by the reaping pass. +inf when nothing is armed.
  double nextDeadline_ = std::numeric_limits<double>::infinity();
  /// Ordered by fd so any diagnostic iteration is deterministic.
  std::map<int, Connection> conns_;
  std::atomic<int> stopMode_{kRunning};
  std::atomic<bool> dumpRequested_{false};
};

/// Everything a serving process needs, built in dependency order from
/// one plain config: overlay network, wall clock, stats sink, the
/// DistributionService decision layer, and the Daemon that serves it.
/// Used by the pscd_daemon binary, bench_serve --spawn mode, and the
/// loopback tests (which also build an identically configured oracle
/// service via the static helpers).
struct ServeHostConfig {
  std::uint32_t numProxies = 16;
  std::uint32_t numTransitNodes = 8;
  std::uint64_t networkSeed = 42;
  StrategyKind strategy = StrategyKind::kGDStar;
  double beta = 1.0;
  PushScheme pushScheme = PushScheme::kAlwaysPushing;
  Bytes capacityPerProxy = 1u << 20;
  LatencyModel latency{};
};

class ServeHost {
 public:
  ServeHost(const ServeHostConfig& config, const DaemonConfig& daemonConfig);

  Daemon& daemon() { return daemon_; }
  DistributionService& service() { return service_; }
  const WireSink& sink() const { return sink_; }
  const Network& network() const { return network_; }

  /// The exact Network a host with `config` builds — deterministic in
  /// config.networkSeed, so a test oracle gets an identical overlay.
  static Network buildNetwork(const ServeHostConfig& config);

  /// The exact ServiceConfig a host with `config` uses.
  static ServiceConfig buildServiceConfig(const ServeHostConfig& config);

 private:
  Network network_;
  WireClock clock_;
  WireSink sink_;
  DistributionService service_;
  Daemon daemon_;
};

}  // namespace pscd::net
