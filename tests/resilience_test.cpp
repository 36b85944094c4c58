// Fault-hardening tests (DESIGN.md §14): the daemon's connection
// deadlines / load shedding / graceful drain, the hardened WireClient
// retry path, and the ChaosProxy fault injector — wired together over
// loopback so every injected fault lands in an exact counter.
//
// Determinism: each scenario's fault schedule is a pure function of its
// (seed, ChaosConfig, workload), so the tests assert full stats structs
// with operator==, not >= bounds; ChaosDeterminism runs one scenario
// twice and requires identical counters end to end.
#include "pscd/net/chaos.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pscd/net/client.h"
#include "pscd/net/daemon.h"
#include "pscd/net/wire.h"
#include "pscd/util/wallclock.h"

namespace pscd::net {
namespace {

std::size_t countOpenFds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

ServeHostConfig smallHostConfig() {
  ServeHostConfig config;
  config.numProxies = 2;
  config.numTransitNodes = 2;
  return config;
}

std::string encodedRequest(std::uint32_t seq, ProxyId proxy, PageId page) {
  WireFrame frame;
  frame.seq = seq;
  frame.body = RequestBody{proxy, page};
  return encodeFrame(frame);
}

/// Blocking loopback socket, optionally with a tiny receive buffer set
/// *before* connect (so the kernel's clamped floor applies to the
/// window the daemon sees).
int rawConnect(std::uint16_t port, int rcvbufBytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  if (rcvbufBytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes,
                 sizeof(rcvbufBytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void sendAllRaw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Blocks until `count` whole frames have arrived on `fd` (5 s receive
/// timeout per recv); each must be an ok RESPONSE.
void readOkResponsesRaw(int fd, std::size_t count) {
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string buffer;
  char chunk[4096];
  for (std::size_t frames = 0; frames < count;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "after " << frames << " of " << count << " frames";
    buffer.append(chunk, static_cast<std::size_t>(n));
    while (true) {
      const DecodeResult r = decodeFrame(buffer);
      ASSERT_NE(r.status, DecodeStatus::kError) << r.error;
      if (r.status == DecodeStatus::kNeedMore) break;
      EXPECT_TRUE(std::get<ResponseBody>(r.frame.body).ok());
      buffer.erase(0, r.consumed);
      ++frames;
    }
  }
}

// ---------------------------------------------------------------------
// Satellite: every DaemonStats counter provoked exactly once, asserting
// the FULL struct — a counter that fires as a side effect of another
// scenario (or fails to fire at all) breaks the == on the whole record.

struct CounterCase {
  const char* name;
  DaemonConfig config;
  /// When true the provocation ends the run itself (drain scenarios);
  /// the runner then only joins instead of calling stop().
  bool selfStopping;
  std::function<void(ServeHost&)> provoke;
  DaemonStats expected;
};

TEST(DaemonCounters, EveryCounterFiresExactlyOnce) {
  std::vector<CounterCase> cases;

  {
    CounterCase c;
    c.name = "clean_baseline";
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(client.publish(1, 1, 64).ok());
    };
    c.expected = DaemonStats{.accepted = 1, .closed = 1, .framesHandled = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "accept_rejected";
    c.config.maxConnections = 1;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(client.publish(1, 1, 64).ok());
      // Over the cap: accepted and immediately closed — the blocking
      // recv returning 0 proves the daemon processed the reject.
      const int fd = rawConnect(host.daemon().port(), 0);
      char byte = 0;
      EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
      ::close(fd);
    };
    c.expected = DaemonStats{.accepted = 1,
                             .acceptRejected = 1,
                             .closed = 1,
                             .framesHandled = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "decode_error";
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      client.sendRaw("not a PSC1 frame, not even close..............");
      EXPECT_THROW(client.request(0, 1), std::runtime_error);
    };
    c.expected = DaemonStats{.accepted = 1, .closed = 1, .decodeErrors = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "protocol_error";
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      WireFrame frame;
      frame.seq = 1;
      frame.body = ResponseBody{
          0, static_cast<std::uint8_t>(FrameType::kRequest), 0, 0, 0, 0,
          0.0};
      client.sendRaw(encodeFrame(frame));
      EXPECT_THROW(client.request(0, 1), std::runtime_error);
    };
    c.expected = DaemonStats{.accepted = 1, .closed = 1,
                             .protocolErrors = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "error_response";
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_FALSE(client.request(0, 999).ok());  // unknown page
    };
    c.expected = DaemonStats{.accepted = 1,
                             .closed = 1,
                             .framesHandled = 1,
                             .errorResponses = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "idle_timeout";
    c.config.idleTimeoutSeconds = 0.1;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(client.publish(1, 1, 64).ok());
      // Go silent; the daemon reaps us and we observe the close.
      WireFrame out;
      EXPECT_EQ(client.readResponse(5.0, &out), WireError::kConnReset);
    };
    c.expected = DaemonStats{.accepted = 1,
                             .closed = 1,
                             .framesHandled = 1,
                             .idleTimeouts = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "read_timeout_slow_loris";
    c.config.readTimeoutSeconds = 0.1;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      // Half a header, then silence: a slow loris holding a partial
      // frame open. Only the read deadline is armed (idle is off).
      client.sendRaw(encodedRequest(1, 0, 1).substr(0, 8));
      WireFrame out;
      EXPECT_EQ(client.readResponse(5.0, &out), WireError::kConnReset);
    };
    c.expected = DaemonStats{.accepted = 1, .closed = 1,
                             .readTimeouts = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "idle_timeout_before_read_deadline";
    c.config.idleTimeoutSeconds = 0.1;
    c.config.readTimeoutSeconds = 5.0;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      // A partial frame arms the read deadline, but the idle deadline
      // comes due first: the reap is an idle timeout, not a read one.
      client.sendRaw(encodedRequest(1, 0, 1).substr(0, 8));
      WireFrame out;
      EXPECT_EQ(client.readResponse(5.0, &out), WireError::kConnReset);
    };
    c.expected = DaemonStats{.accepted = 1, .closed = 1,
                             .idleTimeouts = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "write_timeout_slow_reader";
    c.config.writeTimeoutSeconds = 0.2;
    c.config.sendBufferBytes = 1;  // kernel clamps to its floor
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      {
        WireClient seeder("127.0.0.1", host.daemon().port());
        EXPECT_TRUE(seeder.publish(1, 1, 64).ok());
      }
      // A reader that never reads: tiny receive window + a pipelined
      // burst whose responses cannot fit in the daemon's (floored)
      // send buffer, so flushWrites hits EAGAIN and the write deadline
      // reaps the connection.
      const int fd = rawConnect(host.daemon().port(), 1);
      std::string burst;
      for (std::uint32_t i = 0; i < 400; ++i) {
        burst += encodedRequest(100 + i, 0, 1);
      }
      sendAllRaw(fd, burst);
      sleepSeconds(1.0);
      ::close(fd);
    };
    c.expected = DaemonStats{.accepted = 2,
                             .closed = 2,
                             .framesHandled = 401,
                             .writeTimeouts = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "idle_deadline_follows_activity";
    c.config.idleTimeoutSeconds = 0.2;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient chatty("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(chatty.publish(1, 1, 64).ok());
      WireClient silent("127.0.0.1", host.daemon().port());
      // Three idle periods of requests 0.05 s apart: each one pushes the
      // chatty deadline past the wake-up the daemon recorded, while the
      // silent client is reaped in the meantime.
      for (int i = 0; i < 12; ++i) {
        sleepSeconds(0.05);
        EXPECT_TRUE(chatty.request(0, 1).ok());
      }
      WireFrame out;
      EXPECT_EQ(silent.readResponse(5.0, &out), WireError::kConnReset);
      // Quiet now: the extended deadline still comes due.
      EXPECT_EQ(chatty.readResponse(5.0, &out), WireError::kConnReset);
    };
    c.expected = DaemonStats{.accepted = 2,
                             .closed = 2,
                             .framesHandled = 13,
                             .idleTimeouts = 2};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "write_deadline_disarms_once_flushed";
    c.config.writeTimeoutSeconds = 0.2;
    c.config.sendBufferBytes = 1;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      {
        WireClient seeder("127.0.0.1", host.daemon().port());
        EXPECT_TRUE(seeder.publish(1, 1, 64).ok());
      }
      // The slow reader's burst arms the write deadline, but this reader
      // drains every response at once; once flushed the deadline is gone,
      // so idling past it costs nothing.
      const int fd = rawConnect(host.daemon().port(), 1);
      std::string burst;
      for (std::uint32_t i = 0; i < 400; ++i) {
        burst += encodedRequest(100 + i, 0, 1);
      }
      sendAllRaw(fd, burst);
      readOkResponsesRaw(fd, 400);
      sleepSeconds(0.5);
      sendAllRaw(fd, encodedRequest(500, 0, 1));
      readOkResponsesRaw(fd, 1);
      ::close(fd);
    };
    c.expected = DaemonStats{.accepted = 2, .closed = 2,
                             .framesHandled = 402};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "overload_shed";
    c.config.shedThreshold = 4;
    c.selfStopping = false;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(client.publish(1, 1, 64).ok());
      // One pipelined burst arrives as one input drain: the first 4
      // REQUESTs execute, the remaining 6 are answered kOverloaded in
      // order, all on a connection that stays open.
      std::string burst;
      for (std::uint32_t i = 0; i < 10; ++i) {
        burst += encodedRequest(100 + i, 0, 1);
      }
      client.sendRaw(burst);
      int executed = 0;
      int shed = 0;
      for (int i = 0; i < 10; ++i) {
        WireFrame out;
        ASSERT_EQ(client.readResponse(5.0, &out), WireError::kNone);
        const auto& resp = std::get<ResponseBody>(out.body);
        if (resp.overloaded()) {
          ++shed;
        } else {
          ++executed;
        }
      }
      EXPECT_EQ(executed, 4);
      EXPECT_EQ(shed, 6);
      // The shed connection still serves: state-mutating ops were
      // never shed and the stream is intact.
      EXPECT_TRUE(client.request(0, 1).ok());
    };
    c.expected = DaemonStats{.accepted = 1,
                             .closed = 1,
                             .framesHandled = 12,
                             .overloadShed = 6};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "drain_flushed";
    c.selfStopping = true;  // run() ends when the drained client leaves
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(client.publish(1, 1, 64).ok());
      host.daemon().stopDrain();
      // A full round trip after stopDrain(): by the time our EOF is
      // processed, the loop has passed its mode check and is draining.
      EXPECT_TRUE(client.request(0, 1).ok());
    };
    c.expected = DaemonStats{.accepted = 1,
                             .closed = 1,
                             .framesHandled = 2,
                             .drainFlushed = 1};
    cases.push_back(std::move(c));
  }
  {
    CounterCase c;
    c.name = "drain_deadline_expires";
    c.config.drainSeconds = 0.2;
    c.selfStopping = true;
    c.provoke = [](ServeHost& host) {
      WireClient client("127.0.0.1", host.daemon().port());
      EXPECT_TRUE(client.publish(1, 1, 64).ok());
      host.daemon().stopDrain();
      // Never close: the drain budget expires and the daemon abandons
      // the connection — counted as closed, NOT as drainFlushed.
      sleepSeconds(0.8);
    };
    c.expected = DaemonStats{.accepted = 1, .closed = 1,
                             .framesHandled = 1};
    cases.push_back(std::move(c));
  }

  for (const CounterCase& c : cases) {
    SCOPED_TRACE(c.name);
    ServeHost host(smallHostConfig(), c.config);
    std::thread loop([&host] { host.daemon().run(); });
    c.provoke(host);
    if (!c.selfStopping) host.daemon().stop();
    loop.join();
    EXPECT_TRUE(host.daemon().stats() == c.expected)
        << "got:      " << formatDaemonStats(host.daemon().stats())
        << "\nexpected: " << formatDaemonStats(c.expected);
  }
}

// ---------------------------------------------------------------------
// Chaos proxy scenarios: daemon + ChaosProxy on background threads, a
// hardened WireClient dialing the proxy.

struct ChaosOutcome {
  CallResult result;
  ClientStats client;
  DaemonStats daemon;
  ChaosStats chaos;
};

/// Runs one hardened publish through a chaos proxy whose first
/// connection is broken per `mutate`; the retry's reconnect lands on a
/// clean link (faultConnections = 1) and must succeed.
ChaosOutcome runFaultedCallScenario(
    const std::function<void(ChaosConfig&)>& mutate) {
  ChaosOutcome outcome;
  ServeHost host(smallHostConfig(), DaemonConfig{});
  std::thread daemonLoop([&host] { host.daemon().run(); });

  ChaosConfig chaosConfig;
  chaosConfig.targetPort = host.daemon().port();
  chaosConfig.seed = 7;
  chaosConfig.faultConnections = 1;
  mutate(chaosConfig);
  ChaosProxy proxy(chaosConfig);
  std::thread proxyLoop([&proxy] { proxy.run(); });

  {
    WireClient client("127.0.0.1", proxy.port());
    WireFrame frame;
    frame.body = PublishBody{1, 1, 64};
    CallOptions options;
    options.deadlineSeconds = 0.3;
    options.retries = 2;
    options.backoffSeconds = 0.01;
    outcome.result = client.call(frame, options);
    outcome.client = client.stats();
  }

  proxy.stop();
  proxyLoop.join();
  host.daemon().stop();
  daemonLoop.join();
  outcome.daemon = host.daemon().stats();
  outcome.chaos = proxy.stats();
  return outcome;
}

TEST(ChaosResilience, StalledConnectionTimesOutAndRetrySucceeds) {
  const ChaosOutcome outcome = runFaultedCallScenario([](ChaosConfig& c) {
    // Forward exactly 1 byte of the first connection's request, then
    // hang: the daemon never sees a full frame, the client's deadline
    // expires, and the retry reconnects onto a clean link.
    c.clientToServer.stallAfterBytes = 1;
  });
  EXPECT_TRUE(outcome.result.ok()) << outcome.result.message;
  EXPECT_EQ(outcome.result.attempts, 2u);
  const ClientStats expectedClient{
      .calls = 1, .timeouts = 1, .retries = 1, .reconnects = 1};
  EXPECT_TRUE(outcome.client == expectedClient);
  const DaemonStats expectedDaemon{
      .accepted = 2, .closed = 2, .framesHandled = 1};
  EXPECT_TRUE(outcome.daemon == expectedDaemon)
      << formatDaemonStats(outcome.daemon);
  EXPECT_EQ(outcome.chaos.connections, 2u);
  EXPECT_EQ(outcome.chaos.stalled, 1u);
  EXPECT_EQ(outcome.chaos.resets, 0u);
}

TEST(ChaosResilience, MidFrameResetIsRetriedOnAFreshConnection) {
  const ChaosOutcome outcome = runFaultedCallScenario([](ChaosConfig& c) {
    // RST the first connection as soon as the client has sent 10 bytes
    // (mid-frame): the client sees a hard reset, not a clean close.
    c.resetAfterClientBytes = 10;
  });
  EXPECT_TRUE(outcome.result.ok()) << outcome.result.message;
  EXPECT_EQ(outcome.result.attempts, 2u);
  const ClientStats expectedClient{
      .calls = 1, .connResets = 1, .retries = 1, .reconnects = 1};
  EXPECT_TRUE(outcome.client == expectedClient);
  const DaemonStats expectedDaemon{
      .accepted = 2, .closed = 2, .framesHandled = 1};
  EXPECT_TRUE(outcome.daemon == expectedDaemon)
      << formatDaemonStats(outcome.daemon);
  EXPECT_EQ(outcome.chaos.connections, 2u);
  EXPECT_EQ(outcome.chaos.resets, 1u);
}

TEST(ChaosResilience, TruncatedResponseReadsAsConnReset) {
  // Truncate the server->client direction mid-frame: the client gets a
  // clean EOF in the middle of a RESPONSE and classifies it as a
  // connection loss; the retry lands on a clean link.
  const ChaosOutcome outcome = runFaultedCallScenario([](ChaosConfig& c) {
    c.serverToClient.truncateAfterBytes = 5;
  });
  EXPECT_TRUE(outcome.result.ok()) << outcome.result.message;
  EXPECT_EQ(outcome.result.attempts, 2u);
  const ClientStats expectedClient{
      .calls = 1, .connResets = 1, .retries = 1, .reconnects = 1};
  EXPECT_TRUE(outcome.client == expectedClient);
  EXPECT_EQ(outcome.chaos.truncated, 1u);
  // Both attempts' frames reached the daemon — only the reply was cut.
  EXPECT_EQ(outcome.daemon.framesHandled, 2u);
}

TEST(ChaosResilience, SameSeedAndConfigReplaysIdenticalCounters) {
  const auto mutate = [](ChaosConfig& c) {
    c.clientToServer.stallAfterBytes = 1;
  };
  const ChaosOutcome first = runFaultedCallScenario(mutate);
  const ChaosOutcome second = runFaultedCallScenario(mutate);
  EXPECT_TRUE(first.client == second.client);
  EXPECT_TRUE(first.daemon == second.daemon)
      << formatDaemonStats(first.daemon) << "\nvs "
      << formatDaemonStats(second.daemon);
  EXPECT_TRUE(first.chaos == second.chaos)
      << formatChaosStats(first.chaos) << "\nvs "
      << formatChaosStats(second.chaos);
  EXPECT_EQ(first.result.attempts, second.result.attempts);
}

TEST(ChaosResilience, FullFaultedScenarioLeaksNoFds) {
  const std::size_t before = countOpenFds();
  {
    const ChaosOutcome outcome = runFaultedCallScenario([](ChaosConfig& c) {
      c.resetAfterClientBytes = 10;
    });
    EXPECT_TRUE(outcome.result.ok());
  }
  EXPECT_EQ(countOpenFds(), before);
}

TEST(ChaosResilience, HostNameTargetForwards) {
  // The target is resolved like a WireClient host, so a name works.
  const ChaosOutcome outcome = runFaultedCallScenario(
      [](ChaosConfig& c) { c.targetAddress = "localhost"; });
  EXPECT_TRUE(outcome.result.ok()) << outcome.result.message;
  EXPECT_EQ(outcome.result.attempts, 1u);
  EXPECT_EQ(outcome.chaos.connections, 1u);
  EXPECT_EQ(outcome.chaos.connectFailures, 0u);
}

/// Publishes pages 1..3 directly, then asks for them 20 times over
/// `port`: 20 REQUEST round trips, 1,360 bytes on the wire.
std::vector<ResponseBody> runThrottleExchange(ServeHost& host,
                                              std::uint16_t port) {
  {
    WireClient seeder("127.0.0.1", host.daemon().port());
    for (PageId page = 1; page <= 3; ++page) {
      EXPECT_TRUE(seeder.publish(page, 1, 64 * page).ok());
    }
  }
  WireClient client("127.0.0.1", port);
  std::vector<ResponseBody> answers;
  for (std::uint32_t i = 0; i < 20; ++i) {
    answers.push_back(client.request(i % 2, 1 + i % 3));
  }
  return answers;
}

TEST(ChaosResilience, ThrottleSendsEveryDueByteInOnePass) {
  ServeHost direct(smallHostConfig(), DaemonConfig{});
  ServeHost throttled(smallHostConfig(), DaemonConfig{});
  std::thread directLoop([&direct] { direct.daemon().run(); });
  std::thread throttledLoop([&throttled] { throttled.daemon().run(); });
  const std::vector<ResponseBody> expected =
      runThrottleExchange(direct, direct.daemon().port());

  ChaosConfig chaosConfig;
  chaosConfig.targetPort = throttled.daemon().port();
  chaosConfig.clientToServer.bytesPerSecond = 20000;
  chaosConfig.serverToClient.bytesPerSecond = 20000;
  ChaosProxy proxy(chaosConfig);
  std::thread proxyLoop([&proxy] { proxy.run(); });
  const double start = monotonicSeconds();
  const std::vector<ResponseBody> answers =
      runThrottleExchange(throttled, proxy.port());
  const double seconds = monotonicSeconds() - start;

  proxy.stop();
  proxyLoop.join();
  for (ServeHost* host : {&direct, &throttled}) host->daemon().stop();
  directLoop.join();
  throttledLoop.join();
  EXPECT_TRUE(answers == expected);
  // 1,360 bytes at 20,000 B/s each way is 0.07 s of pacing; one byte
  // per pass would take at least 1.36 s.
  EXPECT_LT(seconds, 0.5);
  EXPECT_EQ(proxy.stats().bytesUpstream, 20u * 24u);
  EXPECT_EQ(proxy.stats().bytesDownstream, 20u * 44u);
}

TEST(ChaosResilience, ChaosConfigIsValidated) {
  EXPECT_THROW(ChaosProxy{ChaosConfig{}}, std::invalid_argument);
  ChaosConfig negative;
  negative.targetPort = 1;
  negative.serverToClient.latencySeconds = -1.0;
  EXPECT_THROW(ChaosProxy{negative}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// Satellite: hostname resolution in WireClient.

TEST(ClientResolve, LocalhostHostnameConnects) {
  ServeHost host(smallHostConfig(), DaemonConfig{});
  std::thread loop([&host] { host.daemon().run(); });
  {
    WireClient client("localhost", host.daemon().port());
    EXPECT_TRUE(client.publish(1, 1, 64).ok());
  }
  host.daemon().stop();
  loop.join();
}

TEST(ClientResolve, UnresolvableHostThrows) {
  EXPECT_THROW(WireClient("no.such.host.invalid", 1), std::runtime_error);
}

}  // namespace
}  // namespace pscd::net
