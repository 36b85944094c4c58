// The networked pscd serving tier: a single-threaded, non-blocking
// epoll event loop that accepts TCP connections, runs a per-connection
// frame state machine (read -> decode -> dispatch -> write-back), and
// hosts a DistributionService behind the WireClock/WireSink runtime
// seam — the engine/strategy/cache decision layer runs unchanged from
// the simulator (see core/runtime.h and DESIGN.md §13).
//
// Connection state machine (per fd):
//
//        +--------- read bytes ----------+
//        v                               |
//   [READING] --frame complete--> [DISPATCH] --response--> [WRITING]
//        |                               |                     |
//        | decode error /                | handler error       | flushed
//        | EOF / overflow                v                     v
//        +------> [CLOSED] <---- error RESPONSE is        [READING]
//                                 still written first
//
// Malformed bytes (bad magic/version/type/flags/length) can never
// resynchronize, so the connection is closed; a well-formed frame whose
// *operation* fails (unknown page, out-of-range proxy) gets a RESPONSE
// with status=kError and the connection lives on.
//
// Threading: the loop runs entirely on the thread that calls run().
// stop() is the one cross-thread entry point — it flips an atomic and
// wakes the loop through an eventfd. Every other fd is closed by the
// time run() returns. The eventfd lives until the destructor, so a
// stop() racing with run()'s return never writes to a closed fd number
// that another file may already reuse. A destroyed daemon holds no
// kernel resources (the loopback test counts /proc/self/fd entries to
// prove it).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "pscd/cache/strategy_factory.h"
#include "pscd/core/service.h"
#include "pscd/net/timer_wheel.h"
#include "pscd/net/wire.h"
#include "pscd/net/wire_runtime.h"
#include "pscd/topology/network.h"
#include "pscd/util/types.h"

namespace pscd::net {

struct DaemonConfig {
  std::string bindAddress = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available via Daemon::port().
  std::uint16_t port = 0;
  int backlog = 128;
  /// Connections beyond this are accepted and immediately closed
  /// (counted in DaemonStats::acceptRejected).
  std::size_t maxConnections = 1024;
  /// A connection whose unflushed response backlog exceeds this is a
  /// slow reader and is closed rather than buffering without bound.
  std::size_t maxOutBufferBytes = 4u << 20;
  /// Pre-decode cap on a connection's buffered-but-undecodable input.
  /// A well-formed stream's residual after a decode pass is always
  /// under one frame (header + kMaxBodyBytes), so anything larger is
  /// hostile or broken and the connection is closed
  /// (DaemonStats::inputOverflows). Belt-and-suspenders over the
  /// per-frame bodyLen cap at decode time.
  std::size_t maxInBufferBytes = 1u << 20;
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
  /// already dispatched ahead of it in the same input drain is answered
  /// with status=kOverloaded instead of being executed — constant-time
  /// rejection under a pipelined burst. State-mutating frames
  /// (SUBSCRIBE/UNSUBSCRIBE/PUBLISH) are never shed. 0 disables.
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
  /// Connections closed for exceeding maxInBufferBytes pre-decode.
  std::uint64_t inputOverflows = 0;
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

class Daemon {
 public:
  /// Binds and listens immediately (throws std::runtime_error with the
  /// errno string on any socket failure), but serves only once run() is
  /// called. `service` must have been built against `clock`; each
  /// RESPONSE is built from the record the service call returns.
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
    std::string in;
    std::string out;
    std::size_t outFlushed = 0;  // prefix of `out` already sent
    bool wantWrite = false;
    double lastActivity = 0.0;   // clock_ time of the last read bytes
    double writePendingSince = 0.0;
    bool writePending = false;   // unflushed output is sitting in `out`
    /// Authoritative reap time; +inf when no deadline applies.
    double deadline = std::numeric_limits<double>::infinity();
    double wheelDeadline = 0.0;  // earliest wheel entry live for fd
    bool wheelArmed = false;
  };

  enum StopMode { kRunning = 0, kStopDrain = 1, kStopNow = 2 };

  void acceptConnections();
  void handleReadable(Connection& conn);
  /// Returns false when the connection was closed.
  bool flushWrites(Connection& conn);
  /// Returns false when re-arming failed and the connection was closed.
  bool updateInterest(Connection& conn);
  void closeConnection(int fd);
  void closeAll();
  /// Decodes and dispatches every complete frame in conn.in; returns
  /// false when the connection was closed (decode/protocol error).
  bool processInput(Connection& conn);
  ResponseBody dispatch(const WireFrame& frame);
  /// Recomputes conn.deadline from the timeout config and current
  /// state, scheduling a wheel entry when it moved earlier.
  void armDeadline(Connection& conn);
  /// Closes every connection whose deadline has passed, classifying the
  /// reap (write > read > idle) into DaemonStats.
  void reapExpired(double now);
  /// epoll_wait timeout honoring the wheel and the drain deadline; -1
  /// when neither is pending (the fault-free default).
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
  /// Ordered by fd so any diagnostic iteration is deterministic.
  std::map<int, Connection> conns_;
  TimerWheel wheel_;
  std::vector<int> expiredScratch_;
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
