// Serving-tier load harness: drives a pscd_daemon over the wire
// protocol and reports latency percentiles and throughput.
//
// Two generator modes (DESIGN.md §13):
//
//   --mode closed  N free-running workers (--concurrency), each with
//                  its own connection, issuing the next op the moment
//                  the previous response lands. Measures peak
//                  sustainable throughput.
//   --mode open    YCSB-style: send times are precomputed from
//                  --qps/--pacing/--seed (buildOpenLoopSchedule) and
//                  never depend on response times; an arrival that
//                  finds every worker busy is *dropped and counted*,
//                  not delayed, so the reported percentiles do not
//                  suffer coordinated omission.
//
// Both modes run a warmup phase (discarded) before the measure phase,
// and record per-worker LatencyHistograms that merge associatively into
// the final percentiles. Unlike the figure benches this binary measures
// wall-clock time, so its numbers are diagnostics, not diffable output.
//
// Targets --connect HOST:PORT, or spawns an in-process ServeHost over
// loopback when --connect is empty (the ctest serve.loopback_smoke
// path). Results go to stdout (ASCII table), optionally --csv, and
// append a timestamped entry to BENCH_serve.json (schema
// pscd-bench-serve-v2, same capped-history format as BENCH_micro.json;
// a file without the v2 tag is replaced by a fresh history).
// --scale multiplies the warmup/measure durations for smoke runs;
// --jobs is accepted for flag uniformity but unused (--concurrency
// sets the worker count).
//
// Fault accounting (DESIGN.md §14): workers use the hardened client
// call with --deadline-ms / --retries / --backoff-ms, so injected
// faults become timeout / reset / shed / failed counters in the table,
// CSV and JSON instead of killing the run. --chaos interposes an
// in-process ChaosProxy between the workers and the daemon
// (--chaos-latency-ms, --chaos-jitter-ms, --chaos-bps,
// --chaos-reset-bytes, --chaos-fault-conns, --chaos-seed); the
// workload seeder always dials the daemon directly so setup is never
// subject to injected faults.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "pscd/net/chaos.h"
#include "pscd/net/client.h"
#include "pscd/net/daemon.h"
#include "pscd/net/histogram.h"
#include "pscd/net/pacing.h"
#include "pscd/util/wallclock.h"

namespace pscd::bench {
namespace {

using net::LatencyHistogram;
using net::ResponseBody;
using net::WireClient;

struct ServeOptions {
  std::string mode = "closed";  // "closed" | "open"
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;   // 0 = spawn an in-process ServeHost
  double qps = 2000.0;      // open mode target arrival rate
  unsigned concurrency = 4;
  double measureSeconds = 2.0;
  double warmupSeconds = 0.5;
  std::uint32_t pages = 256;
  std::uint32_t proxies = 8;
  StrategyKind strategy = StrategyKind::kGDStar;
  std::uint64_t seed = 1;
  net::PacingKind pacing = net::PacingKind::kUniform;
  std::string jsonPath = "BENCH_serve.json";
  // Hardened-call knobs (0 keeps the legacy wait-forever behavior).
  double deadlineMs = 0.0;
  std::uint32_t retries = 0;
  double backoffMs = 0.0;
  // Chaos proxy knobs (--chaos interposes the proxy).
  bool chaos = false;
  double chaosLatencyMs = 0.0;
  double chaosJitterMs = 0.0;
  double chaosBps = 0.0;
  std::uint64_t chaosResetBytes = 0;
  std::uint32_t chaosFaultConns = 0;
  std::uint64_t chaosSeed = 1;
};

/// One load-generator worker: private connection, RNG stream, and
/// histogram, so the measure phase shares nothing between threads.
struct Worker {
  std::unique_ptr<WireClient> client;
  Rng rng{0};
  LatencyHistogram hist;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t failed = 0;  // ops that exhausted deadline/retries
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  Version nextVersion = 2;
  std::string failure;  // first fatal client error, "" when healthy
};

/// 10% publishes (fresh versions keep the push path busy), 90%
/// requests across the full proxy/page grid. A degraded op (timeout,
/// reset, shed past the retry budget) is counted in `failed`, not
/// thrown; returns false only on a fatal protocol error.
bool doOneOp(Worker& w, const ServeOptions& opt) {
  const bool publish = w.rng.uniform() < 0.1;
  const auto page = static_cast<PageId>(w.rng.uniformInt(
      static_cast<std::uint64_t>(opt.pages)));
  net::WireFrame frame;
  bool isRequest = false;
  if (publish) {
    frame.body = net::PublishBody{
        page, w.nextVersion++,
        64 + w.rng.uniformInt(std::uint64_t{192})};
  } else {
    const auto proxy = static_cast<ProxyId>(w.rng.uniformInt(
        static_cast<std::uint64_t>(opt.proxies)));
    frame.body = net::RequestBody{proxy, page};
    isRequest = true;
  }
  net::CallOptions callOptions;
  callOptions.deadlineSeconds = opt.deadlineMs / 1000.0;
  callOptions.retries = opt.retries;
  callOptions.backoffSeconds = opt.backoffMs / 1000.0;
  const double t0 = monotonicSeconds();
  const net::CallResult r = w.client->call(frame, callOptions);
  if (r.ok()) {
    w.hist.record(monotonicSeconds() - t0);
    ++w.ops;
    if (isRequest) {
      ++w.requests;
      if (r.response.hit != 0) ++w.hits;
    }
    if (!r.response.ok()) ++w.errors;
    return true;
  }
  if (r.error == net::WireError::kProtocol) {
    if (w.failure.empty()) w.failure = r.message;
    return false;
  }
  ++w.failed;
  return true;
}

/// Publishes every page once and lays down a deterministic subscription
/// grid (each proxy subscribes to every fourth page, phase-shifted), so
/// requests hit live pages and publishes fan out.
void seedWorkload(WireClient& client, const ServeOptions& opt) {
  for (PageId page = 0; page < opt.pages; ++page) {
    client.publish(page, 1, 64 + page % 192);
  }
  for (ProxyId proxy = 0; proxy < opt.proxies; ++proxy) {
    for (PageId page = 0; page < opt.pages; ++page) {
      if ((page + proxy) % 4 == 0) client.subscribe(proxy, page);
    }
  }
}

std::vector<Worker> makeWorkers(const ServeOptions& opt) {
  std::vector<Worker> workers(opt.concurrency);
  for (unsigned i = 0; i < opt.concurrency; ++i) {
    workers[i].client = std::make_unique<WireClient>(opt.host, opt.port);
    // Disjoint version ranges so concurrent publishers never race the
    // same (page, version) pair.
    workers[i].nextVersion = 2 + i * 1000000u;
    workers[i].rng.reseed(opt.seed * 7919 + i);
  }
  return workers;
}

/// Closed-loop phase: every worker free-runs until the deadline.
void runClosedPhase(std::vector<Worker>& workers, const ServeOptions& opt,
                    double seconds) {
  const double deadline = monotonicSeconds() + seconds;
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (Worker& w : workers) {
    threads.emplace_back([&w, &opt, deadline] {
      try {
        while (monotonicSeconds() < deadline && doOneOp(w, opt)) {
        }
      } catch (const std::exception& e) {
        w.failure = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Open-loop measure phase. The dispatcher walks the precomputed
/// schedule against the wall clock and hands each arrival to a free
/// worker — or drops it. Returns the drop count.
std::uint64_t runOpenPhase(std::vector<Worker>& workers,
                           const ServeOptions& opt) {
  net::PacingConfig pacing;
  pacing.targetQps = opt.qps;
  pacing.durationSeconds = opt.measureSeconds;
  pacing.kind = opt.pacing;
  pacing.seed = opt.seed;
  const std::vector<double> schedule = net::buildOpenLoopSchedule(pacing);

  // All three fields below are guarded by mu (locals cannot carry the
  // PSCD_GUARDED_BY annotation, so the protocol is enforced by review
  // here: every access is under MutexLock).
  Mutex mu;
  CondVar cv;
  std::vector<int> freeWorkers;
  std::vector<bool> assigned;
  bool done = false;
  {
    MutexLock lock(mu);
    assigned.assign(workers.size(), false);
    for (int i = static_cast<int>(workers.size()) - 1; i >= 0; --i) {
      freeWorkers.push_back(i);
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    Worker& w = workers[i];
    threads.emplace_back([&w, &opt, &mu, &cv, &freeWorkers, &assigned, &done,
                          i] {
      while (true) {
        {
          MutexLock lock(mu);
          cv.wait(mu, [&] { return assigned[i] || done; });
          if (!assigned[i]) return;  // done, nothing assigned: exit
          assigned[i] = false;
        }
        try {
          if (w.failure.empty()) doOneOp(w, opt);
        } catch (const std::exception& e) {
          if (w.failure.empty()) w.failure = e.what();
        }
        MutexLock lock(mu);
        freeWorkers.push_back(static_cast<int>(i));
      }
    });
  }

  std::uint64_t dropped = 0;
  const double start = monotonicSeconds();
  for (const double at : schedule) {
    sleepSeconds(at - (monotonicSeconds() - start));
    MutexLock lock(mu);
    if (freeWorkers.empty()) {
      ++dropped;  // never delay: delaying would re-introduce
                  // coordinated omission
      continue;
    }
    const int worker = freeWorkers.back();
    freeWorkers.pop_back();
    assigned[static_cast<std::size_t>(worker)] = true;
    cv.notifyAll();
  }
  {
    MutexLock lock(mu);
    done = true;
  }
  cv.notifyAll();
  for (std::thread& t : threads) t.join();
  return dropped;
}

struct ServeResult {
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t connResets = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t retriesUsed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t dropped = 0;
  std::uint64_t scheduled = 0;  // open mode: arrivals in the schedule
  double measuredSeconds = 0.0;
  double opsPerSec = 0.0;
  double hitRatio = 0.0;
  double meanMs = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double p999Ms = 0.0;
  double maxMs = 0.0;
};

std::string renderEntry(const ServeOptions& opt, const ServeResult& r,
                        std::int64_t timestamp) {
  JsonWriter w;
  w.beginObject();
  w.key("timestamp").value(timestamp);
  w.key("mode").value(opt.mode);
  w.key("pacing").value(opt.pacing == net::PacingKind::kUniform ? "uniform"
                                                                : "poisson");
  w.key("strategy").value(std::string(strategyName(opt.strategy)));
  w.key("concurrency").value(opt.concurrency);
  w.key("target_qps").value(opt.qps);
  w.key("measure_seconds").value(r.measuredSeconds);
  w.key("ops").value(r.ops);
  w.key("errors").value(r.errors);
  w.key("failed").value(r.failed);
  w.key("timeouts").value(r.timeouts);
  w.key("conn_resets").value(r.connResets);
  w.key("overloaded").value(r.overloaded);
  w.key("retries").value(r.retriesUsed);
  w.key("reconnects").value(r.reconnects);
  w.key("chaos").value(opt.chaos ? 1 : 0);
  w.key("dropped").value(r.dropped);
  w.key("ops_per_sec").value(r.opsPerSec);
  w.key("hit_ratio").value(r.hitRatio);
  w.key("mean_ms").value(r.meanMs);
  w.key("p50_ms").value(r.p50Ms);
  w.key("p99_ms").value(r.p99Ms);
  w.key("p999_ms").value(r.p999Ms);
  w.key("max_ms").value(r.maxMs);
  w.endObject();
  return w.str();
}

int run(int argc, char** argv) {
  const std::vector<BenchOption> extras = {
      {"mode", "load generator mode: closed | open", "closed"},
      {"connect",
       "daemon address as HOST:PORT; empty = spawn an in-process daemon "
       "over loopback",
       ""},
      {"qps", "open mode: target arrival rate", "2000"},
      {"concurrency", "worker connections", "4"},
      {"seconds", "measure-phase duration in seconds", "2"},
      {"warmup", "warmup-phase duration in seconds (discarded)", "0.5"},
      {"pages", "distinct pages in the workload", "256"},
      {"proxies", "proxies in the overlay (and request fan)", "8"},
      {"strategy", "daemon cache strategy (spawn mode)", "GD*"},
      {"seed", "workload + pacing RNG seed", "1"},
      {"pacing", "open mode arrival process: uniform | poisson", "uniform"},
      {"json", "trajectory file to append to", "BENCH_serve.json"},
      {"deadline-ms", "per-attempt response deadline; 0 waits forever", "0"},
      {"retries", "extra attempts on timeout/reset/overloaded", "0"},
      {"backoff-ms", "base retry backoff (doubles per retry)", "0"},
      {"chaos",
       "1 = interpose a fault-injecting proxy between workers and the "
       "daemon (the seeder always dials the daemon directly)",
       "0"},
      {"chaos-latency-ms", "proxy: fixed delay per direction", "0"},
      {"chaos-jitter-ms", "proxy: uniform extra delay per chunk", "0"},
      {"chaos-bps", "proxy: client-to-server bytes/s throttle; 0 = off", "0"},
      {"chaos-reset-bytes",
       "proxy: RST a faulted connection once the client sent this many "
       "bytes; 0 = off",
       "0"},
      {"chaos-fault-conns",
       "proxy: only the first N connections get faults; 0 = all", "0"},
      {"chaos-seed", "proxy jitter RNG seed", "1"},
  };
  std::map<std::string, std::string> values;
  const BenchEnv env = parseBenchEnv(
      argc, argv, "bench_serve",
      "Serving-tier load harness: closed-loop (fixed concurrency) or "
      "open-loop (target QPS, drop accounting) generators against a "
      "pscd_daemon, reporting HDR-histogram latency percentiles. "
      "--scale multiplies the warmup/measure durations; --jobs is "
      "unused (see --concurrency).",
      extras, &values);

  ServeOptions opt;
  try {
    opt.mode = values["mode"];
    if (opt.mode != "closed" && opt.mode != "open") {
      throw std::invalid_argument("--mode must be closed or open");
    }
    opt.qps = std::stod(values["qps"]);
    opt.concurrency =
        parseIntOption<unsigned>("concurrency", values["concurrency"]);
    opt.measureSeconds = std::stod(values["seconds"]) * env.scale;
    opt.warmupSeconds = std::stod(values["warmup"]) * env.scale;
    opt.pages = parseIntOption<std::uint32_t>("pages", values["pages"]);
    opt.proxies = parseIntOption<std::uint32_t>("proxies", values["proxies"]);
    opt.strategy = parseStrategyKind(values["strategy"]);
    opt.seed = parseIntOption<std::uint64_t>("seed", values["seed"]);
    if (values["pacing"] == "uniform") {
      opt.pacing = net::PacingKind::kUniform;
    } else if (values["pacing"] == "poisson") {
      opt.pacing = net::PacingKind::kPoisson;
    } else {
      throw std::invalid_argument("--pacing must be uniform or poisson");
    }
    opt.jsonPath = values["json"];
    opt.deadlineMs = std::stod(values["deadline-ms"]);
    opt.retries = parseIntOption<std::uint32_t>("retries", values["retries"]);
    opt.backoffMs = std::stod(values["backoff-ms"]);
    opt.chaos = parseIntOption<int>("chaos", values["chaos"]) != 0;
    opt.chaosLatencyMs = std::stod(values["chaos-latency-ms"]);
    opt.chaosJitterMs = std::stod(values["chaos-jitter-ms"]);
    opt.chaosBps = std::stod(values["chaos-bps"]);
    opt.chaosResetBytes = parseIntOption<std::uint64_t>(
        "chaos-reset-bytes", values["chaos-reset-bytes"]);
    opt.chaosFaultConns = parseIntOption<std::uint32_t>(
        "chaos-fault-conns", values["chaos-fault-conns"]);
    opt.chaosSeed =
        parseIntOption<std::uint64_t>("chaos-seed", values["chaos-seed"]);
    if (opt.deadlineMs < 0 || opt.backoffMs < 0 || opt.chaosLatencyMs < 0 ||
        opt.chaosJitterMs < 0 || opt.chaosBps < 0) {
      throw std::invalid_argument("deadline/backoff/chaos values must be "
                                  ">= 0");
    }
    if (opt.concurrency == 0 || opt.pages == 0 || opt.proxies == 0) {
      throw std::invalid_argument(
          "--concurrency, --pages and --proxies must be positive");
    }
    const std::string& connect = values["connect"];
    if (!connect.empty()) {
      const std::size_t colon = connect.rfind(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--connect must be HOST:PORT");
      }
      opt.host = connect.substr(0, colon);
      opt.port = parseIntOption<std::uint16_t>("connect",
                                               connect.substr(colon + 1));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 2;
  }

  // Spawn mode: host the daemon in-process on an ephemeral loopback
  // port, serving from its own thread for the whole run.
  std::unique_ptr<net::ServeHost> spawned;
  std::thread daemonThread;
  if (opt.port == 0) {
    net::ServeHostConfig hostConfig;
    hostConfig.numProxies = opt.proxies;
    hostConfig.strategy = opt.strategy;
    spawned = std::make_unique<net::ServeHost>(hostConfig,
                                              net::DaemonConfig{});
    opt.host = "127.0.0.1";
    opt.port = spawned->daemon().port();
    daemonThread = std::thread([&spawned] { spawned->daemon().run(); });
  }
  const auto stopSpawned = [&] {
    if (spawned) {
      spawned->daemon().stop();
      daemonThread.join();
      spawned.reset();
    }
  };

  // The seeder must bypass the chaos proxy: workload setup is plumbing,
  // not the system under test.
  const std::string directHost = opt.host;
  const std::uint16_t directPort = opt.port;

  std::unique_ptr<net::ChaosProxy> chaos;
  std::thread chaosThread;
  if (opt.chaos) {
    net::ChaosConfig chaosConfig;
    chaosConfig.targetAddress = directHost;
    chaosConfig.targetPort = directPort;
    chaosConfig.seed = opt.chaosSeed;
    chaosConfig.clientToServer.latencySeconds = opt.chaosLatencyMs / 1000.0;
    chaosConfig.clientToServer.jitterSeconds = opt.chaosJitterMs / 1000.0;
    chaosConfig.clientToServer.bytesPerSecond = opt.chaosBps;
    chaosConfig.serverToClient = chaosConfig.clientToServer;
    chaosConfig.resetAfterClientBytes = opt.chaosResetBytes;
    chaosConfig.faultConnections = opt.chaosFaultConns;
    try {
      chaos = std::make_unique<net::ChaosProxy>(chaosConfig);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_serve: chaos proxy: %s\n", e.what());
      stopSpawned();
      return 1;
    }
    opt.host = "127.0.0.1";
    opt.port = chaos->port();
    chaosThread = std::thread([&chaos] { chaos->run(); });
  }
  const auto stopChaos = [&] {
    if (chaos) {
      chaos->stop();
      chaosThread.join();
      std::printf("chaos %s\n", formatChaosStats(chaos->stats()).c_str());
      chaos.reset();
    }
  };

  printHeader("Serving-tier load harness (" + opt.mode + "-loop, " +
                  std::string(strategyName(opt.strategy)) + ")",
              "the serving tier of section 2");

  int exitCode = 0;
  try {
    {
      WireClient seeder(directHost, directPort);
      seedWorkload(seeder, opt);
    }
    std::vector<Worker> workers = makeWorkers(opt);

    // Warmup (closed-loop in both modes: the goal is a warm cache and
    // steady connections, not a measurement), then reset and measure.
    runClosedPhase(workers, opt, opt.warmupSeconds);
    for (Worker& w : workers) {
      if (!w.failure.empty()) throw std::runtime_error(w.failure);
      w = Worker{std::move(w.client), w.rng, LatencyHistogram{},
                 0,  0, 0, 0, 0, w.nextVersion, std::string()};
      w.client->resetStats();
    }

    ServeResult result;
    const double measureStart = monotonicSeconds();
    if (opt.mode == "closed") {
      runClosedPhase(workers, opt, opt.measureSeconds);
    } else {
      result.dropped = runOpenPhase(workers, opt);
      result.scheduled = result.dropped;  // completed ops added below
    }
    result.measuredSeconds = monotonicSeconds() - measureStart;

    LatencyHistogram merged;
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    for (Worker& w : workers) {
      if (!w.failure.empty()) throw std::runtime_error(w.failure);
      merged.merge(w.hist);
      result.ops += w.ops;
      result.errors += w.errors;
      result.failed += w.failed;
      requests += w.requests;
      hits += w.hits;
      const net::ClientStats& cs = w.client->stats();
      result.timeouts += cs.timeouts;
      result.connResets += cs.connResets;
      result.overloaded += cs.overloaded;
      result.retriesUsed += cs.retries;
      result.reconnects += cs.reconnects;
    }
    result.scheduled += result.ops;
    result.opsPerSec = result.measuredSeconds > 0.0
                           ? static_cast<double>(result.ops) /
                                 result.measuredSeconds
                           : 0.0;
    result.hitRatio = requests > 0
                          ? static_cast<double>(hits) /
                                static_cast<double>(requests)
                          : 0.0;
    result.meanMs = merged.count() > 0
                        ? merged.sumSeconds() * 1e3 /
                              static_cast<double>(merged.count())
                        : 0.0;
    result.p50Ms = merged.percentile(50.0) * 1e3;
    result.p99Ms = merged.percentile(99.0) * 1e3;
    result.p999Ms = merged.percentile(99.9) * 1e3;
    result.maxMs = merged.maxSeconds() * 1e3;

    AsciiTable table({"mode", "ops", "ops/sec", "dropped", "errors",
                      "failed", "timeouts", "resets", "shed", "retries",
                      "hit%", "mean ms", "p50 ms", "p99 ms", "p999 ms",
                      "max ms"});
    table.row()
        .cell(opt.mode)
        .cell(result.ops)
        .cell(formatFixed(result.opsPerSec, 0))
        .cell(result.dropped)
        .cell(result.errors)
        .cell(result.failed)
        .cell(result.timeouts)
        .cell(result.connResets)
        .cell(result.overloaded)
        .cell(result.retriesUsed)
        .cell(pct(result.hitRatio))
        .cell(formatFixed(result.meanMs, 3))
        .cell(formatFixed(result.p50Ms, 3))
        .cell(formatFixed(result.p99Ms, 3))
        .cell(formatFixed(result.p999Ms, 3))
        .cell(formatFixed(result.maxMs, 3));
    std::printf("%s\n", table.render().c_str());

    CsvSink csv;
    csv.add("serve", table);
    csv.writeTo(env.csvPath);

    std::vector<std::string> entries = extractTrajectoryEntries(
        readTextFileOrEmpty(opt.jsonPath), "pscd-bench-serve-v2");
    entries.push_back(renderEntry(opt, result, unixTimeSeconds()));
    std::string error;
    if (!writeTextFileAtomic(
            opt.jsonPath,
            renderTrajectoryHistory("pscd-bench-serve-v2", entries), &error)) {
      throw std::runtime_error(error);
    }
    std::printf("wrote %s (%zu history entries)\n", opt.jsonPath.c_str(),
                std::min(entries.size(), kMicroHistoryLimit));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    exitCode = 1;
  }
  stopChaos();
  stopSpawned();
  return exitCode;
}

}  // namespace
}  // namespace pscd::bench

int main(int argc, char** argv) { return pscd::bench::run(argc, argv); }
