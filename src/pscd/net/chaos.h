// ChaosProxy: a deterministic, seeded TCP fault injector that sits
// between a WireClient and the pscd daemon, forwarding bytes in both
// directions while injecting socket-level faults from a ChaosConfig:
//
//   latency + jitter   — chunks are held until now + latency + jitter,
//                        jitter drawn from a per-connection,
//                        per-direction SplitMix64 stream;
//   bandwidth throttle — each pass forwards the bytes due at the
//                        configured rate, so frames reach the peer
//                        split at arbitrary bytes;
//   stall              — forward N bytes, then stop forwarding and stop
//                        reading: the stream simply hangs mid-frame;
//   truncate           — forward N bytes, then half-close the
//                        destination: the peer sees a clean EOF in the
//                        middle of a frame;
//   reset              — once the client has sent N bytes, close both
//                        sides with SO_LINGER{1,0}: both peers see RST.
//
// Replayability: the fault schedule is a pure function of (seed,
// ChaosConfig, traffic). With the same workload on the same machine a
// run reproduces the same injected faults, which is what lets
// resilience tests assert exact counter values.
//
// The proxy is the same shape as the Daemon — its own epoll loop on the
// caller's thread, non-blocking fds, run()/stop() lifecycle, every fd
// but the wake eventfd closed before run() returns and that one by the
// destructor — so tests can host daemon + proxy on two background
// threads and count /proc/self/fd to prove neither leaks.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pscd::net {

/// Faults applied to one direction of a proxied connection.
struct ChaosDirection {
  /// Fixed delay added to every forwarded chunk.
  double latencySeconds = 0.0;
  /// Uniform [0, jitterSeconds) added on top, per chunk, from the
  /// direction's SplitMix64 stream.
  double jitterSeconds = 0.0;
  /// When > 0, forwarded bytes are paced at this many per second.
  double bytesPerSecond = 0.0;
  /// When > 0, forward exactly this many bytes then hang the stream
  /// (no EOF, no RST — the peer just waits).
  std::uint64_t stallAfterBytes = 0;
  /// When > 0, forward exactly this many bytes then half-close the
  /// destination (clean EOF mid-frame).
  std::uint64_t truncateAfterBytes = 0;
};

struct ChaosConfig {
  std::string bindAddress = "127.0.0.1";
  /// 0 = ephemeral; resolved via ChaosProxy::port().
  std::uint16_t port = 0;
  /// Where proxied connections are forwarded (the real daemon): a host
  /// name or an IPv4 literal, resolved once by the constructor.
  std::string targetAddress = "127.0.0.1";
  std::uint16_t targetPort = 0;
  /// Seeds every jitter stream; same seed + config + workload = same
  /// injected fault schedule.
  std::uint64_t seed = 1;
  ChaosDirection clientToServer;
  ChaosDirection serverToClient;
  /// When > 0, hard-reset (RST) both sides of a faulted connection once
  /// the client has sent this many bytes through it.
  std::uint64_t resetAfterClientBytes = 0;
  /// When > 0, only the first N accepted connections get faults; later
  /// ones are clean pass-throughs. Lets a retrying client's reconnect
  /// succeed after its first connection was deliberately broken.
  /// 0 faults every connection.
  std::uint32_t faultConnections = 0;
};

struct ChaosStats {
  /// Connections accepted (and forwarded to the target).
  std::uint64_t connections = 0;
  /// Connections the proxy failed to splice to the target.
  std::uint64_t connectFailures = 0;
  /// Connections hard-reset by resetAfterClientBytes.
  std::uint64_t resets = 0;
  /// Directions truncated by truncateAfterBytes.
  std::uint64_t truncated = 0;
  /// Directions stalled by stallAfterBytes.
  std::uint64_t stalled = 0;
  /// Bytes forwarded client -> server.
  std::uint64_t bytesUpstream = 0;
  /// Bytes forwarded server -> client.
  std::uint64_t bytesDownstream = 0;

  friend bool operator==(const ChaosStats&, const ChaosStats&) = default;
};

/// One-line rendering for the pscd_chaos exit dump and test messages.
std::string formatChaosStats(const ChaosStats& stats);

class ChaosProxy {
 public:
  /// Resolves the target, binds and listens immediately (throws
  /// std::runtime_error when the target does not resolve or a socket
  /// call fails); forwards only once run() is called.
  explicit ChaosProxy(const ChaosConfig& config);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  /// The locally bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  /// Forwards until stop(); callable once. Closes every fd but the wake
  /// eventfd before returning.
  void run();

  /// Thread-safe shutdown request; run() returns promptly.
  void stop();

  /// Stable to read after run() returns.
  const ChaosStats& stats() const { return stats_; }

 private:
  struct Chunk {
    std::string data;
    std::size_t sent = 0;
    double releaseAt = 0.0;
  };

  /// One direction of a proxied connection.
  struct Pipe {
    ChaosDirection faults;  // zeroed for non-faulted connections
    std::deque<Chunk> queue;
    std::uint64_t ingested = 0;   // bytes accepted from src into queue
    std::uint64_t forwarded = 0;  // bytes written to dst
    double nextSendAt = 0.0;      // throttle pacing cursor
    std::uint64_t rngState = 0;   // SplitMix64 jitter stream
    bool stalled = false;
    bool truncated = false;
    bool srcEof = false;
    bool dstShutdown = false;
    bool dstWantWrite = false;
  };

  struct Link {
    std::uint64_t index = 0;
    int clientFd = -1;
    int serverFd = -1;
    bool resetEnabled = false;
    std::uint64_t clientBytesIn = 0;  // raw bytes read from the client
    std::uint32_t clientEvents = 0;   // current epoll interest per side
    std::uint32_t serverEvents = 0;
    Pipe up;    // client -> server
    Pipe down;  // server -> client
  };

  void acceptConnections();
  void handleEvent(std::uint64_t linkId, bool clientSide,
                   std::uint32_t mask, double now);
  /// Reads from one side, applying stall/truncate caps and queueing
  /// chunks with their release times. May reset the link.
  void pumpRead(std::uint64_t linkId, bool clientSide, double now);
  /// Flushes due chunks toward the destination; returns false when the
  /// link was torn down.
  bool flushPipe(std::uint64_t linkId, bool upstream, double now);
  void updateInterest(Link& link, bool clientSide);
  /// Hard-reset both sides (SO_LINGER{1,0}) and drop the link.
  void resetLink(std::uint64_t linkId);
  void closeLink(std::uint64_t linkId);
  void closeAll();
  /// epoll timeout until the nearest queued chunk becomes sendable, or
  /// -1 when every queue is empty or blocked on the destination.
  int computeWaitMs(double now) const;
  /// True when both directions have delivered everything they ever
  /// will, so the link can be dismantled.
  static bool linkDone(const Link& link);

  ChaosConfig config_;
  /// config_.targetAddress, resolved once by the constructor.
  std::vector<sockaddr_in> target_;
  ChaosStats stats_;
  std::uint16_t port_ = 0;
  int listenFd_ = -1;
  int epollFd_ = -1;
  /// Set by the constructor and closed by the destructor, never changed
  /// in between, so stop() may read it from any thread.
  int wakeFd_ = -1;
  bool ran_ = false;
  std::uint64_t nextLinkId_ = 0;
  std::map<std::uint64_t, Link> links_;
  /// fd -> (link id, is the client-side fd).
  std::map<int, std::pair<std::uint64_t, bool>> fdIndex_;
  std::atomic<bool> stopRequested_{false};
};

}  // namespace pscd::net
