// End-to-end serving-tier tests over 127.0.0.1 in one process: a
// ServeHost (epoll daemon + DistributionService behind WireClock/
// WireSink) on its own thread, WireClients on the test thread(s).
//
// The oracle tests exploit the runtime seam: an identically configured
// DistributionService driven *directly* (no sockets, fixed clock) must
// produce the same hits, misses, fan-outs, and byte counts as the
// daemon, because GD*/SUB cache decisions are value/match-count based
// and never read absolute time (ctx.now only stamps lastAccess). Any
// divergence means the wire tier changed engine behavior — exactly what
// the layering is supposed to prevent.
#include "pscd/net/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pscd/net/chaos.h"
#include "pscd/net/client.h"
#include "pscd/util/rng.h"

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

class ServeLoopbackTest : public ::testing::Test {
 protected:
  void StartHost(StrategyKind strategy = StrategyKind::kGDStar) {
    config_ = ServeHostConfig{};
    config_.numProxies = 4;
    config_.numTransitNodes = 4;
    config_.strategy = strategy;
    config_.capacityPerProxy = 4096;  // small: exercises eviction
    host_ = std::make_unique<ServeHost>(config_, DaemonConfig{});
    thread_ = std::thread([this] { host_->daemon().run(); });
  }

  void StopHost() {
    if (host_ && thread_.joinable()) {
      host_->daemon().stop();
      thread_.join();
    }
  }

  void TearDown() override { StopHost(); }

  WireClient connect() {
    return WireClient("127.0.0.1", host_->daemon().port());
  }

  // Drives the daemon and a direct oracle service through an identical
  // fixed-seed op stream and requires identical per-op responses and
  // final counters.
  void RunLockstep() {
    WireClient client = connect();
    const Network network = ServeHost::buildNetwork(config_);
    ManualClock clock;  // fixed at 0: the oracle ignores the wall clock
    WireSink sink;
    DistributionService oracle(network, clock, sink,
                               ServeHost::buildServiceConfig(config_));

    constexpr PageId kPages = 32;
    // Seed phase: publish every page once through both paths and lay
    // the same subscription grid.
    for (PageId page = 0; page < kPages; ++page) {
      ASSERT_TRUE(client.publish(page, 1, 100 + page * 13).ok());
      PublishEvent event;
      event.time = 0.0;
      event.page = page;
      event.version = 1;
      event.size = 100 + page * 13;
      oracle.handlePublish(event);
    }
    for (ProxyId proxy = 0; proxy < config_.numProxies; ++proxy) {
      for (PageId page = proxy; page < kPages; page += 3) {
        ASSERT_TRUE(client.subscribe(proxy, page).ok());
        oracle.broker().subscribeAggregated(proxy, page, 1);
      }
    }

    // Mixed fixed-seed stream: the daemon's wall clock and the oracle's
    // zero clock must not matter to any of the compared fields.
    Rng rng(2026);
    Version nextVersion = 2;
    for (int op = 0; op < 400; ++op) {
      const double pick = rng.uniform();
      if (pick < 0.25) {
        const auto page = static_cast<PageId>(rng.uniformInt(
            std::uint64_t{kPages}));
        const Bytes size = 80 + rng.uniformInt(std::uint64_t{400});
        const Version version = nextVersion++;
        const ResponseBody resp = client.publish(page, version, size);
        ASSERT_TRUE(resp.ok()) << "op " << op;
        const PushDelivery d =
            oracle.handlePublish(PublishEvent{0.0, page, version, size});
        EXPECT_EQ(resp.pages, d.pages) << "op " << op;
        EXPECT_EQ(resp.bytes, d.bytes) << "op " << op;
      } else {
        const auto proxy = static_cast<ProxyId>(rng.uniformInt(
            std::uint64_t{config_.numProxies}));
        const auto page = static_cast<PageId>(rng.uniformInt(
            std::uint64_t{kPages}));
        const ResponseBody resp = client.request(proxy, page);
        ASSERT_TRUE(resp.ok()) << "op " << op;
        const RequestDelivery d = oracle.handleRequest(proxy, page);
        EXPECT_EQ(resp.hit != 0, d.hit) << "op " << op;
        EXPECT_EQ(resp.stale != 0, d.stale) << "op " << op;
        EXPECT_EQ(resp.bytes, d.bytesTransferred) << "op " << op;
        EXPECT_EQ(resp.responseTimeMs, d.responseTimeMs) << "op " << op;
      }
    }

    // Totals agree once the daemon is quiesced (reading its sink needs
    // the loop thread stopped).
    StopHost();
    const ServeCounters& daemon = host_->sink().counters();
    const ServeCounters& direct = sink.counters();
    EXPECT_EQ(daemon.requests, direct.requests);
    EXPECT_EQ(daemon.hits, direct.hits);
    EXPECT_EQ(daemon.staleServes, direct.staleServes);
    EXPECT_EQ(daemon.unavailable, direct.unavailable);
    EXPECT_EQ(daemon.requestBytes, direct.requestBytes);
    EXPECT_EQ(daemon.pushes, direct.pushes);
    EXPECT_EQ(daemon.pushedPages, direct.pushedPages);
    EXPECT_EQ(daemon.pushedBytes, direct.pushedBytes);
    EXPECT_GT(daemon.requests, 0u);
    EXPECT_GT(daemon.hits, 0u);  // the workload must exercise the cache
  }

  ServeHostConfig config_;
  std::unique_ptr<ServeHost> host_;
  std::thread thread_;
};

TEST_F(ServeLoopbackTest, SubscribePublishNotifyFanout) {
  // SG2 places on push (GD* is access-placement: it would admit no
  // pushed page and the fan-out below would be legitimately empty).
  StartHost(StrategyKind::kSG2);
  WireClient client = connect();

  // Aggregated counts at two proxies; the third stays silent.
  EXPECT_TRUE(client.subscribe(0, 7, 3).ok());
  EXPECT_TRUE(client.subscribe(1, 7, 1).ok());
  EXPECT_TRUE(client.subscribe(2, 8, 2).ok());

  // Oracle: the same broker state driven directly.
  const Network network = ServeHost::buildNetwork(config_);
  ManualClock clock;  // fixed at 0: the oracle ignores the wall clock
  WireSink sink;
  DistributionService oracle(network, clock, sink,
                             ServeHost::buildServiceConfig(config_));
  oracle.broker().subscribeAggregated(0, 7, 3);
  oracle.broker().subscribeAggregated(1, 7, 1);
  oracle.broker().subscribeAggregated(2, 8, 2);

  const ResponseBody push = client.publish(7, 1, 500);
  ASSERT_TRUE(push.ok());
  const PushDelivery d = oracle.handlePublish(PublishEvent{0.0, 7, 1, 500});
  EXPECT_EQ(push.pages, d.pages);
  EXPECT_EQ(push.bytes, d.bytes);
  EXPECT_EQ(d.proxiesNotified, 2u);
  EXPECT_GT(push.pages, 0u);  // two matching proxies: a real fan-out

  // Unsubscribing reports the removed count both ways.
  const ResponseBody unsub = client.unsubscribe(0, 7, 2);
  ASSERT_TRUE(unsub.ok());
  EXPECT_EQ(unsub.pages, oracle.broker().unsubscribeAggregated(0, 7, 2));
}

TEST_F(ServeLoopbackTest, GdStarLockstepAgainstDirectOracle) {
  StartHost(StrategyKind::kGDStar);
  RunLockstep();
}

TEST_F(ServeLoopbackTest, SubStrategyLockstepAgainstDirectOracle) {
  StartHost(StrategyKind::kSUB);
  RunLockstep();
}

TEST_F(ServeLoopbackTest, ErrorResponsesKeepTheConnectionAlive) {
  StartHost();
  WireClient client = connect();
  ASSERT_TRUE(client.publish(1, 1, 64).ok());

  // Unknown page, out-of-range proxy, and zero-size publish each earn a
  // status=kError RESPONSE with a zeroed payload...
  const ResponseBody unknown = client.request(0, 999);
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.pages, 0u);
  EXPECT_EQ(unknown.bytes, 0u);
  EXPECT_FALSE(client.request(99, 1).ok());
  EXPECT_FALSE(client.subscribe(99, 1).ok());
  EXPECT_FALSE(client.unsubscribe(99, 1).ok());
  EXPECT_FALSE(client.publish(2, 1, 0).ok());

  // ...and the connection (and service state) live on.
  EXPECT_TRUE(client.request(0, 1).ok());
  EXPECT_TRUE(client.subscribe(0, 1).ok());

  StopHost();
  EXPECT_EQ(host_->daemon().stats().errorResponses, 5u);
  EXPECT_EQ(host_->daemon().stats().decodeErrors, 0u);
}

TEST_F(ServeLoopbackTest, SubscribeCountOverflowAnswersErrorAndKeepsTheCount) {
  StartHost(StrategyKind::kSG2);
  WireClient client = connect();
  ASSERT_TRUE(client.subscribe(0, 5, 0xFFFFFFFFu).ok());
  // A further add would wrap the stored count to 0: it is refused...
  EXPECT_FALSE(client.subscribe(0, 5, 1).ok());
  // ...the connection lives on, and the saturated count still notifies.
  const ResponseBody push = client.publish(5, 1, 64);
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(push.pages, 1u);
  EXPECT_TRUE(client.subscribe(1, 5, 1).ok());

  StopHost();
  EXPECT_EQ(host_->daemon().stats().errorResponses, 1u);
  EXPECT_EQ(host_->service().broker().aggregatedCount(0, 5), 0xFFFFFFFFu);
  host_->service().checkInvariants();
}

TEST_F(ServeLoopbackTest, GarbageBytesCloseOnlyThatConnection) {
  StartHost();
  WireClient bad = connect();
  WireClient good = connect();
  ASSERT_TRUE(good.publish(1, 1, 64).ok());

  bad.sendRaw("this is definitely not a PSC1 frame........");
  EXPECT_THROW(bad.request(0, 1), std::runtime_error);
  EXPECT_FALSE(bad.connected());

  // The other connection is unaffected.
  EXPECT_TRUE(good.request(0, 1).ok());

  // The poisoned client's next call reconnects instead of failing.
  EXPECT_TRUE(bad.request(0, 1).ok());
  EXPECT_TRUE(bad.connected());
  EXPECT_EQ(bad.stats().reconnects, 1u);

  StopHost();
  EXPECT_EQ(host_->daemon().stats().decodeErrors, 1u);
}

TEST_F(ServeLoopbackTest, ClientResponseFrameIsAProtocolError) {
  StartHost();
  WireClient client = connect();
  WireFrame frame;
  frame.seq = 1;
  frame.body = ResponseBody{0, static_cast<std::uint8_t>(FrameType::kRequest),
                            0, 0, 0, 0, 0.0};
  client.sendRaw(encodeFrame(frame));
  // The daemon closes without answering; the next call hits EOF.
  EXPECT_THROW(client.request(0, 1), std::runtime_error);
  StopHost();
  EXPECT_EQ(host_->daemon().stats().protocolErrors, 1u);
}

TEST_F(ServeLoopbackTest, MultiClientConcurrentSmoke) {
  StartHost();
  {
    WireClient seeder = connect();
    for (PageId page = 0; page < 16; ++page) {
      ASSERT_TRUE(seeder.publish(page, 1, 128).ok());
    }
  }
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      try {
        WireClient client = connect();
        Rng rng(100 + static_cast<std::uint64_t>(c));
        for (int i = 0; i < kOpsPerClient; ++i) {
          const auto proxy = static_cast<ProxyId>(rng.uniformInt(
              std::uint64_t{4}));
          const auto page = static_cast<PageId>(rng.uniformInt(
              std::uint64_t{16}));
          if (!client.request(proxy, page).ok()) {
            failures[static_cast<std::size_t>(c)] = "error response";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
  }
  StopHost();
  // Every request (and only those) hit the service's counters.
  EXPECT_EQ(host_->sink().counters().requests,
            static_cast<std::uint64_t>(kClients * kOpsPerClient));
  EXPECT_EQ(host_->daemon().stats().accepted,
            static_cast<std::uint64_t>(kClients + 1));
}

TEST(ServeLoopbackShutdown, CleanShutdownLeaksNoFds) {
  const std::size_t before = countOpenFds();
  {
    ServeHostConfig config;
    config.numProxies = 2;
    config.numTransitNodes = 2;
    ServeHost host(config, DaemonConfig{});
    std::thread server([&host] { host.daemon().run(); });
    {
      WireClient a("127.0.0.1", host.daemon().port());
      WireClient b("127.0.0.1", host.daemon().port());
      ASSERT_TRUE(a.publish(1, 1, 64).ok());
      ASSERT_TRUE(b.request(0, 1).ok());
      // `b` is still connected when the daemon stops: shutdown must
      // also reap server-side fds for live connections.
      host.daemon().stop();
      server.join();
    }
  }
  EXPECT_EQ(countOpenFds(), before);
}

/// Runs `server.run()` on this thread while a second thread calls
/// `poke` in a loop: before run() starts, while it returns, and for a
/// while after it returned.
template <typename Server, typename Poke>
void pokeWhileRunReturns(Server& server, Poke poke) {
  std::atomic<bool> returned{false};
  std::thread poker([&] {
    for (int after = 0; after < 100;) {
      poke();
      if (returned.load(std::memory_order_acquire)) ++after;
    }
  });
  server.run();
  returned.store(true, std::memory_order_release);
  poker.join();
}

TEST(ServeLoopbackShutdown, StopRacingRunReturnIsSafe) {
  // The wake eventfd stays open until the destructor, so a stop() that
  // races with run()'s return never reads a descriptor being closed or
  // writes to a reused fd number. The debug-tsan-parallel preset runs
  // this under ThreadSanitizer.
  for (int round = 0; round < 10; ++round) {
    ServeHostConfig config;
    config.numProxies = 2;
    config.numTransitNodes = 2;
    ServeHost host(config, DaemonConfig{});
    Daemon& daemon = host.daemon();
    pokeWhileRunReturns(daemon, [&daemon] {
      daemon.stop();
      daemon.stopDrain();
      daemon.requestStatsDump();
    });

    ChaosConfig chaos;
    chaos.targetPort = daemon.port();
    ChaosProxy proxy(chaos);
    pokeWhileRunReturns(proxy, [&proxy] { proxy.stop(); });
  }
}

TEST(ServeLoopbackShutdown, StopBeforeRunAndDoubleRunAreSafe) {
  ServeHostConfig config;
  config.numProxies = 2;
  config.numTransitNodes = 2;
  ServeHost host(config, DaemonConfig{});
  host.daemon().stop();   // before run(): run must return immediately
  host.daemon().run();
  EXPECT_THROW(host.daemon().run(), std::logic_error);
}

}  // namespace
}  // namespace pscd::net
