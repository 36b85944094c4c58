// pscd_chaos: the ChaosProxy as a standalone process, for driving an
// out-of-process pscd_daemon through injected faults (the CI
// resilience-smoke job, manual soak runs).
//
// Listens on --bind:--port, forwards every connection to --connect
// HOST:PORT, and applies the configured faults symmetrically to both
// directions of each (faulted) connection. Prints "listening on <port>"
// once ready so scripts can scrape the ephemeral port, and a
// formatChaosStats line on clean exit. SIGINT / SIGTERM stop the proxy.
#include <csignal>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "pscd/net/chaos.h"
#include "pscd/util/args.h"

namespace {

pscd::net::ChaosProxy* g_proxy = nullptr;

void handleSignal(int) {
  if (g_proxy != nullptr) g_proxy->stop();
}

}  // namespace

int main(int argc, char** argv) {
  pscd::ArgParser args("pscd_chaos",
                       "Deterministic fault-injecting TCP proxy for the "
                       "pscd wire protocol: forwards to --connect while "
                       "adding latency, jitter, throttling, stalls, "
                       "truncation and resets from a seeded schedule.");
  args.addOption("port", "TCP port to bind (0 = ephemeral)", "0");
  args.addOption("bind", "IPv4 address to bind", "127.0.0.1");
  args.addOption("connect", "forward target as HOST:PORT", "");
  args.addOption("seed", "jitter RNG seed", "1");
  args.addOption("latency-ms", "fixed delay per forwarded chunk", "0");
  args.addOption("jitter-ms", "uniform extra delay per chunk", "0");
  args.addOption("bps", "client-to-server bytes/s throttle (0 = off)", "0");
  args.addOption("stall-bytes",
                 "per direction: forward N bytes then hang (0 = off)", "0");
  args.addOption("truncate-bytes",
                 "per direction: forward N bytes then half-close (0 = off)",
                 "0");
  args.addOption("reset-bytes",
                 "RST both sides once the client sent N bytes (0 = off)",
                 "0");
  args.addOption("fault-conns",
                 "only the first N connections get faults (0 = all)", "0");
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
    pscd::net::ChaosConfig config;
    config.bindAddress = args.option("bind");
    config.port = args.optionInt<std::uint16_t>("port");
    const std::string connect = args.option("connect");
    const std::size_t colon = connect.rfind(':');
    if (connect.empty() || colon == std::string::npos) {
      throw std::invalid_argument("--connect must be HOST:PORT");
    }
    config.targetAddress = connect.substr(0, colon);
    config.targetPort = pscd::parseIntOption<std::uint16_t>(
        "connect", std::string_view(connect).substr(colon + 1));
    config.seed = args.optionInt<std::uint64_t>("seed");
    config.clientToServer.latencySeconds =
        args.optionDouble("latency-ms") / 1000.0;
    config.clientToServer.jitterSeconds =
        args.optionDouble("jitter-ms") / 1000.0;
    config.clientToServer.bytesPerSecond = args.optionDouble("bps");
    config.clientToServer.stallAfterBytes =
        args.optionInt<std::uint64_t>("stall-bytes");
    config.clientToServer.truncateAfterBytes =
        args.optionInt<std::uint64_t>("truncate-bytes");
    config.serverToClient = config.clientToServer;
    config.resetAfterClientBytes = args.optionInt<std::uint64_t>("reset-bytes");
    config.faultConnections = args.optionInt<std::uint32_t>("fault-conns");

    pscd::net::ChaosProxy proxy(config);
    g_proxy = &proxy;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    // Line-buffered handshake, same shape as pscd_daemon's.
    std::printf("listening on %u\n", proxy.port());
    std::fflush(stdout);

    proxy.run();
    g_proxy = nullptr;

    std::printf("%s\n", pscd::net::formatChaosStats(proxy.stats()).c_str());
    return 0;
  } catch (const std::out_of_range& e) {
    // An integer flag whose value does not fit its field.
    std::fprintf(stderr, "pscd_chaos: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pscd_chaos: %s\n", e.what());
    return 1;
  }
}
