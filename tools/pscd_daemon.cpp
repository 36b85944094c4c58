// pscd_daemon: the networked serving tier as a standalone process.
//
// Binds a TCP port, builds the overlay network and DistributionService
// from the given flags, and serves wire-protocol frames until SIGINT /
// SIGTERM. Prints "listening on <port>" once ready so scripts (the CI
// serve-smoke job) can scrape the ephemeral port.
//
// Operational signals: SIGUSR1 logs a stats snapshot without stopping;
// when --drain-ms is set, SIGTERM drains (stop accepting, flush live
// connections, then exit) instead of stopping immediately. SIGINT
// always stops immediately. A stats line is printed on clean exit.
#include <csignal>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "pscd/cache/strategy_factory.h"
#include "pscd/net/daemon.h"
#include "pscd/util/args.h"

namespace {

pscd::net::Daemon* g_daemon = nullptr;
bool g_drainOnTerm = false;

void handleSignal(int sig) {
  if (g_daemon == nullptr) return;
  if (sig == SIGTERM && g_drainOnTerm) {
    g_daemon->stopDrain();
  } else {
    g_daemon->stop();
  }
}

void handleStatsSignal(int) {
  if (g_daemon != nullptr) g_daemon->requestStatsDump();
}

}  // namespace

int main(int argc, char** argv) {
  pscd::ArgParser args("pscd_daemon",
                       "Networked pscd broker/proxy daemon: serves the "
                       "wire protocol over TCP in front of a "
                       "DistributionService.");
  args.addOption("port", "TCP port to bind (0 = ephemeral)", "0");
  args.addOption("bind", "IPv4 address to bind", "127.0.0.1");
  args.addOption("proxies", "number of proxies in the overlay", "16");
  args.addOption("transit", "number of transit nodes in the overlay", "8");
  args.addOption("strategy", "cache strategy (GD*, SUB, SG1, ...)", "GD*");
  args.addOption("beta", "GD* beta balance factor", "1.0");
  args.addOption("capacity", "cache capacity per proxy in bytes",
                 std::to_string(1u << 20));
  args.addOption("seed", "overlay topology seed", "42");
  args.addOption("max-connections", "concurrent connection cap", "1024");
  args.addOption("idle-timeout-ms",
                 "reap connections idle this long (0 = never)", "0");
  args.addOption("read-timeout-ms",
                 "reap connections stuck mid-frame this long (0 = never)",
                 "0");
  args.addOption("write-timeout-ms",
                 "reap connections with an unflushed response this long "
                 "(0 = never)",
                 "0");
  args.addOption("shed",
                 "per-batch REQUEST load-shedding threshold (0 = off)", "0");
  args.addOption("drain-ms",
                 "drain budget for SIGTERM: stop accepting, flush live "
                 "connections up to this long (0 = stop immediately)",
                 "0");
  if (!args.parse(argc, argv)) {
    if (!args.error().empty()) {
      std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                   args.help().c_str());
      return 2;
    }
    std::fputs(args.help().c_str(), stdout);
    return 0;
  }

  try {
    pscd::net::ServeHostConfig hostConfig;
    hostConfig.numProxies = args.optionInt<std::uint32_t>("proxies");
    hostConfig.numTransitNodes = args.optionInt<std::uint32_t>("transit");
    hostConfig.networkSeed = args.optionInt<std::uint64_t>("seed");
    hostConfig.strategy = pscd::parseStrategyKind(args.option("strategy"));
    hostConfig.beta = args.optionDouble("beta");
    hostConfig.capacityPerProxy = args.optionInt<pscd::Bytes>("capacity");

    pscd::net::DaemonConfig daemonConfig;
    daemonConfig.bindAddress = args.option("bind");
    daemonConfig.port = args.optionInt<std::uint16_t>("port");
    daemonConfig.maxConnections =
        args.optionInt<std::size_t>("max-connections");
    daemonConfig.idleTimeoutSeconds =
        args.optionDouble("idle-timeout-ms") / 1000.0;
    daemonConfig.readTimeoutSeconds =
        args.optionDouble("read-timeout-ms") / 1000.0;
    daemonConfig.writeTimeoutSeconds =
        args.optionDouble("write-timeout-ms") / 1000.0;
    daemonConfig.shedThreshold = args.optionInt<std::size_t>("shed");
    const double drainMs = args.optionDouble("drain-ms");
    if (drainMs > 0) daemonConfig.drainSeconds = drainMs / 1000.0;

    pscd::net::ServeHost host(hostConfig, daemonConfig);
    g_daemon = &host.daemon();
    g_drainOnTerm = drainMs > 0;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGUSR1, handleStatsSignal);

    // Line-buffered stdout handshake for scripts that spawn the daemon
    // and need the resolved ephemeral port.
    std::printf("listening on %u\n", host.daemon().port());
    std::fflush(stdout);

    host.daemon().run();
    g_daemon = nullptr;

    const pscd::net::DaemonStats& stats = host.daemon().stats();
    const pscd::net::ServeCounters& counters = host.sink().counters();
    std::printf(
        "served %llu frames (%llu connections, %llu decode errors, "
        "%llu error responses); %llu requests, hit ratio %.3f\n",
        static_cast<unsigned long long>(stats.framesHandled),
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.decodeErrors),
        static_cast<unsigned long long>(stats.errorResponses),
        static_cast<unsigned long long>(counters.requests),
        counters.hitRatio());
    std::printf("%s\n", pscd::net::formatDaemonStats(stats).c_str());
    return 0;
  } catch (const std::out_of_range& e) {
    // An integer flag whose value does not fit its field.
    std::fprintf(stderr, "pscd_daemon: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pscd_daemon: %s\n", e.what());
    return 1;
  }
}
