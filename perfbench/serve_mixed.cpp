// serve-mixed: an in-process ServeHost daemon (strategy SG2) on
// loopback TCP, driven from the same process over 3 connections with
// 90% REQUEST and 10% PUBLISH. Page popularity is Zipf; each of the 8
// proxies subscribes to a quarter of the 4096 pages; pages are 1-16 KB
// (metadata only: the wire carries the size, not the bytes) against a
// 4 MiB cache per proxy, so the requested bytes are several times one
// proxy's cache and misses evict. Every page is published by one
// connection only, so its versions increase on every publish.
//
// Phases after set-up: a closed-loop warm-up (discarded), a closed loop
// on the 3 connections (throughput_ops_s and latency_*: each call's round
// trip), then an open loop at a fixed Poisson rate well below capacity
// (hit_ratio, traffic_mb, and loadgen.open_*: latency timed from each
// op's due send time). The daemon thread plus the 3 connection threads
// are 4 threads in all.
//
// Why latency_* comes from the closed loop: between open-loop arrivals
// the daemon and the clients go idle, so every op pays two wake-ups of
// idle vCPUs, and each millisecond the hypervisor withholds a vCPU
// delays every arrival due meanwhile. On a shared host that made the
// open-loop percentiles swing by several times between runs of the same
// code. In the closed loop the daemon always has work queued, and a
// stall delays one op per connection.
//
// Why: the only workload that crosses net, where a served op spends
// most of its time; publishes (push fan-out, writes) run beside
// requests (cache reads).
//
// The traced run alternates untraced and traced slots in the closed
// loop (trace.overhead_frac), records a span around every client call
// in traced slots and in the open loop, and afterwards replays those
// ops, in send order, through a second in-process DistributionService
// and through the wire codec. That attributes each call's round trip
// to core, codec and the remainder (transport: syscalls, wake-ups,
// the daemon's loop).
//
// Correctness: every op must return ok, and the client's request, hit
// and publish counts must equal the daemon's WireSink counters.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "pscd/core/service.h"
#include "pscd/net/client.h"
#include "pscd/net/daemon.h"
#include "pscd/net/wire.h"
#include "pscd/net/wire_runtime.h"
#include "pscd/util/distributions.h"
#include "pscd/util/rng.h"

namespace perfbench {
namespace {

using namespace pscd;

/// Set-ups per run (setup_s is their median; a set-up takes ~30 ms).
constexpr int kSetups = 11;
using net::ResponseBody;
using net::WireClient;
using net::WireFrame;

constexpr std::uint32_t kProxies = 8;
constexpr std::uint32_t kPages = 4096;
constexpr Bytes kMinPageBytes = 1024;
constexpr Bytes kMaxPageBytes = 16384;
constexpr Bytes kCapacityPerProxy = 4u << 20;
/// The ALTERNATIVE trace's homogeneity: with the NEWS trace's 1.5 a
/// handful of pages take nearly every request and the cache never
/// evicts.
constexpr double kZipfAlpha = 1.0;
constexpr double kPublishFraction = 0.1;
constexpr unsigned kConnections = 3;
/// Open-loop arrival rate over all connections: a fixed constant well
/// below the closed loop's capacity.
constexpr double kOpenRate = 25000.0;
/// The open loop sleeps until this close to a due time, then spins.
constexpr std::int64_t kSpinNs = 30'000;
/// Arrivals still unsent this long after the open phase ends are
/// counted as failed.
constexpr std::int64_t kOpenGraceNs = 1'000'000'000;
/// Per-attempt response deadline; a call that misses it is a failure.
constexpr double kCallDeadlineSeconds = 5.0;
/// Shares of --seconds.
constexpr double kWarmupShare = 0.1;
constexpr double kClosedShare = 0.5;
constexpr double kOpenShare = 0.4;
/// Trace mode alternates untraced and traced closed-loop slots.
constexpr std::int64_t kSlotNs = 50'000'000;
/// Closed-loop throughput and round-trip percentiles (per connection)
/// are taken per window of this length, and open-loop percentiles per
/// (shorter) latency window, each long enough for ten samples beyond the
/// p99; the median over the windows is reported, so a short stall of
/// the host moves a few windows, not the result.
constexpr std::int64_t kWindowNs = 250'000'000;
constexpr std::int64_t kLatencyWindowNs = 50'000'000;

/// The page set: the Zipf rank -> page map and a size per rank. Both
/// are fixed, not drawn from the seed, which drives only the op streams:
/// with one subscription per (proxy, page) and repeated accesses, SG2's
/// frequency term max(s - a, 0) is soon 0 for most pages, so eviction
/// order among equal values, which follows page ids, decides much of
/// the hit ratio. A seeded map would make the hit ratio depend on the
/// seed; the identity map would evict the most popular pages first.
struct PageSet {
  std::vector<PageId> byRank = std::vector<PageId>(kPages);
  std::vector<Bytes> size = std::vector<Bytes>(kPages);  // by page
  ZipfDistribution zipf{kPages, kZipfAlpha};

  PageSet() {
    for (PageId p = 0; p < kPages; ++p) byRank[p] = p;
    Rng shuffle(0x5157e5);
    for (std::uint32_t i = kPages - 1; i > 0; --i) {
      std::swap(byRank[i], byRank[shuffle.uniformInt(std::uint64_t{i} + 1)]);
    }
    for (std::uint32_t rank = 0; rank < kPages; ++rank) {
      size[byRank[rank]] = static_cast<Bytes>(
          shuffle.uniformInt(static_cast<std::int64_t>(kMinPageBytes),
                             static_cast<std::int64_t>(kMaxPageBytes)));
    }
  }

  /// Draws a popularity rank in [0, kPages).
  std::uint32_t sampleRank(Rng& rng) const { return zipf.sample(rng) - 1; }
  PageId sample(Rng& rng) const { return byRank[sampleRank(rng)]; }
};

bool subscribes(ProxyId proxy, PageId page) {
  return (page + proxy) % 4 == 0;
}

struct Op {
  bool publish = false;
  ProxyId proxy = 0;
  PageId page = 0;
  Version version = 0;
  Bytes size = 0;
};

/// One connection's op stream. Connection `owner` publishes only the
/// pages whose popularity rank is `owner` modulo kConnections, so every
/// page's versions increase in the order the daemon receives them. It
/// publishes in proportion to its pages' Zipf weight, so the publishes
/// of all connections together follow the same Zipf law as requests.
class OpStream {
 public:
  OpStream(const PageSet& pages, unsigned owner)
      : pages_(&pages), owner_(owner), versions_(kPages, 1) {
    double ownedWeight = 0.0;
    for (std::uint32_t rank = 0; rank < kPages; ++rank) {
      if (rank % kConnections == owner) {
        ownedWeight += pages.zipf.pmf(rank + 1);
      }
    }
    publishChance_ = kPublishFraction * kConnections * ownedWeight;
  }

  /// Each phase draws from its own stream, so a phase's ops do not
  /// depend on how many ops the previous, time-bounded phase issued.
  void startPhase(std::uint64_t seed) { rng_.reseed(seed); }

  Op next() {
    Op op;
    if (rng_.uniform() < publishChance_) {
      op.publish = true;
      std::uint32_t rank = 0;
      do {
        rank = pages_->sampleRank(rng_);
      } while (rank % kConnections != owner_);
      op.page = pages_->byRank[rank];
      op.version = ++versions_[op.page];
      op.size = pages_->size[op.page];
    } else {
      op.proxy = static_cast<ProxyId>(rng_.uniformInt(std::uint64_t{kProxies}));
      op.page = pages_->sample(rng_);
    }
    return op;
  }

 private:
  const PageSet* pages_;
  unsigned owner_;
  double publishChance_ = 0.0;
  Rng rng_{0};
  std::vector<Version> versions_;
};

WireFrame frameOf(const Op& op) {
  WireFrame frame;
  if (op.publish) {
    frame.body = net::PublishBody{op.page, op.version, op.size};
  } else {
    frame.body = net::RequestBody{op.proxy, op.page};
  }
  return frame;
}

/// Outcomes of the ops one connection issued in one phase.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t stale = 0;
  std::uint64_t publishes = 0;
  std::uint64_t pushPages = 0;
  Bytes bytes = 0;  // push bytes plus fetch bytes

  void add(const Tally& o) {
    ops += o.ops;
    failed += o.failed;
    requests += o.requests;
    hits += o.hits;
    stale += o.stale;
    publishes += o.publishes;
    pushPages += o.pushPages;
    bytes += o.bytes;
  }
};

/// A traced call, kept for the replay.
struct TracedOp {
  Op op;
  std::int64_t send = 0;
  std::uint32_t callSpan = 0;  // the net.call span (1-based)
  bool open = false;           // issued by the open loop
};

struct Connection {
  Connection(const PageSet& pages, unsigned index, std::uint16_t port)
      : index(index),
        client(std::make_unique<WireClient>("127.0.0.1", port)),
        ops(pages, index) {}

  unsigned index;
  std::unique_ptr<WireClient> client;
  OpStream ops;
  Tally warmup, closed, open;
  std::string firstFailure;
  // Closed loop: ops completed per window, and per slot kind (0
  // untraced, 1 traced).
  std::vector<std::uint64_t> windowOps;
  std::uint64_t slotOps[2] = {0, 0};
  // Closed loop: the round trips (us) of the current window, and the
  // percentiles of each finished one.
  std::size_t rttWindow = 0;
  std::vector<double> rttUs;
  std::vector<double> rttP50Us, rttP99Us;
  // Open loop, stamped with each op's due time: latency from the due
  // time and how late the op was sent, both in us.
  std::vector<Sample> latencyUs;
  std::vector<Sample> lateUs;
  std::uint64_t unsent = 0;
  // Trace mode.
  Tracer tracer;
  std::vector<TracedOp> traced;
};

/// Issues one op on the connection's hardened call path.
bool issue(Connection& c, const Op& op, Tally& tally) {
  ++tally.ops;
  net::CallOptions options;
  options.deadlineSeconds = kCallDeadlineSeconds;
  const net::CallResult r = c.client->call(frameOf(op), options);
  if (!r.ok() || !r.response.ok()) {
    ++tally.failed;
    if (c.firstFailure.empty()) {
      c.firstFailure = r.ok() ? "status " + std::to_string(r.response.status)
                              : std::string(net::wireErrorName(r.error)) +
                                    ": " + r.message;
    }
    return false;
  }
  tally.bytes += r.response.bytes;
  if (op.publish) {
    ++tally.publishes;
    tally.pushPages += r.response.pages;
  } else {
    ++tally.requests;
    if (r.response.hit != 0) ++tally.hits;
    if (r.response.stale != 0) ++tally.stale;
  }
  return true;
}

/// Id shared by every span of the connection's next traced op.
std::uint64_t nextOpId(const Connection& c) {
  return (std::uint64_t{c.index} << 40) | c.traced.size();
}

void recordCall(Connection& c, const Op& op, std::uint32_t parent,
                std::int64_t send, std::int64_t done, bool open) {
  const std::uint32_t call = c.tracer.record(c.tracer.intern("net.call"),
                                             parent, nextOpId(c), send, done);
  c.traced.push_back({op, send, call, open});
}

/// Ends the connection's current closed-loop window.
void closeRttWindow(Connection& c) {
  if (c.rttUs.empty()) return;
  c.rttP50Us.push_back(percentile(c.rttUs, 50.0));
  c.rttP99Us.push_back(percentile(c.rttUs, 99.0));
  c.rttUs.clear();
}

/// Closed loop until `deadline`. Ops that end in one of the phase's
/// windows (c.windowOps; none in the warm-up) count towards throughput
/// and their round trips towards that window's percentiles. Every such
/// window ends before `deadline`, so none is cut short.
void closedLoop(Connection& c, Tally& tally, std::int64_t start,
                std::int64_t deadline, bool alternate) {
  for (;;) {
    const std::int64_t t0 = nowNs();
    if (t0 >= deadline) break;
    const int traced = alternate && ((t0 - start) / kSlotNs) % 2 == 1 ? 1 : 0;
    const Op op = c.ops.next();
    issue(c, op, tally);
    const std::int64_t t1 = nowNs();
    const auto window = static_cast<std::size_t>((t1 - start) / kWindowNs);
    if (window < c.windowOps.size()) {
      ++c.windowOps[window];
      if (window != c.rttWindow) {
        closeRttWindow(c);
        c.rttWindow = window;
      }
      c.rttUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    ++c.slotOps[traced];
    if (traced) recordCall(c, op, 0, t0, t1, false);
  }
  closeRttWindow(c);
}

void waitUntil(std::int64_t due) {
  for (;;) {
    const std::int64_t remaining = due - nowNs();
    if (remaining <= 0) return;
    if (remaining > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(remaining - kSpinNs));
    }
  }
}

/// Open loop: a Poisson schedule of this connection's share of
/// kOpenRate, fixed before the phase starts. Each op is sent at its due
/// time, or at once when the previous reply came back late, and its
/// latency runs from the due time. Nothing is dropped: an arrival still
/// unsent after the grace period is counted as failed.
void openLoop(Connection& c, std::uint64_t seed, std::int64_t start,
              double seconds, bool traced) {
  Rng rng(seed);
  std::vector<std::int64_t> schedule;
  const double rate = kOpenRate / kConnections;
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    schedule.push_back(start + static_cast<std::int64_t>(t * 1e9));
  }
  c.latencyUs.reserve(schedule.size());
  c.lateUs.reserve(schedule.size());
  const std::int64_t giveUp =
      start + static_cast<std::int64_t>(seconds * 1e9) + kOpenGraceNs;
  const std::uint32_t opName = c.tracer.intern("serve.op");
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::int64_t due = schedule[i];
    waitUntil(due);
    const std::int64_t send = nowNs();
    if (send > giveUp) {
      c.unsent += schedule.size() - i;
      c.open.failed += schedule.size() - i;
      break;
    }
    const Op op = c.ops.next();
    const bool ok = issue(c, op, c.open);
    const std::int64_t done = nowNs();
    if (ok) {
      c.latencyUs.push_back({due, static_cast<double>(done - due) * 1e-3});
      c.lateUs.push_back({due, static_cast<double>(send - due) * 1e-3});
    }
    if (traced) {
      const std::uint32_t parent =
          c.tracer.record(opName, 0, nextOpId(c), due, done);
      recordCall(c, op, parent, send, done, true);
    }
  }
}

/// Runs `body(connection)` on every connection at once: connection 0 on
/// the calling thread, the others on their own threads.
template <typename Body>
void onEveryConnection(std::vector<std::unique_ptr<Connection>>& conns,
                       const Body& body) {
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < conns.size(); ++i) {
    threads.emplace_back([&body, c = conns[i].get()] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      body(*c);
    });
  }
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  body(*conns[0]);
  for (std::thread& t : threads) t.join();
}

net::ServeHostConfig hostConfig() {
  net::ServeHostConfig config;
  config.numProxies = kProxies;
  config.strategy = StrategyKind::kSG2;
  config.pushScheme = PushScheme::kAlwaysPushing;
  config.capacityPerProxy = kCapacityPerProxy;
  return config;
}

/// Publishes every page once (at time 0) and lays down the subscription
/// grid, straight into `service`.
void seedPages(DistributionService& service, const PageSet& pages) {
  for (PageId page = 0; page < kPages; ++page) {
    service.handlePublish({0.0, page, 1, pages.size[page]});
  }
  for (ProxyId proxy = 0; proxy < kProxies; ++proxy) {
    for (PageId page = 0; page < kPages; ++page) {
      if (subscribes(proxy, page)) {
        service.broker().subscribeAggregated(proxy, page, 1);
      }
    }
  }
}

/// The daemon, seeded with the page set in process before it serves (over
/// the wire, those 12k round trips made set-up time swing fourfold with
/// the host's wake-up latency), then serving on its own thread until
/// stop().
class RunningHost {
 public:
  explicit RunningHost(const PageSet& pages)
      : host_(hostConfig(), net::DaemonConfig{}) {
    seedPages(host_.service(), pages);
    thread_ = std::thread([this] { host_.daemon().run(); });
  }
  ~RunningHost() { stop(); }
  RunningHost(const RunningHost&) = delete;
  RunningHost& operator=(const RunningHost&) = delete;

  std::uint16_t port() { return host_.daemon().port(); }
  /// Stops and joins the daemon; its stats and sink are stable after.
  void stop() {
    if (thread_.joinable()) {
      host_.daemon().stop();
      thread_.join();
    }
  }
  net::ServeHost& host() { return host_; }

 private:
  net::ServeHost host_;
  std::thread thread_;
};

struct ReplayResult {
  std::vector<std::int64_t> coreNs;   // per traced op
  std::vector<std::int64_t> codecNs;  // per traced op
  std::uint64_t notified = 0;
  std::uint64_t stored = 0;
  std::uint64_t matches = 0;
  std::uint64_t publishes = 0;
  bool codecOk = true;
};

/// Replays the traced ops, in send order, through a second service built
/// exactly like the daemon's, and through the wire codec: encode and
/// decode of the op's frame and of its RESPONSE.
ReplayResult replay(const PageSet& pages, std::vector<TracedOp>& ops,
                    Tracer& tracer) {
  std::sort(ops.begin(), ops.end(),
            [](const TracedOp& a, const TracedOp& b) { return a.send < b.send; });
  const net::ServeHostConfig config = hostConfig();
  const Network network = net::ServeHost::buildNetwork(config);
  ManualClock clock;
  net::WireSink sink;  // the daemon's sink: its last deliveries make the
                       // RESPONSE frame
  DistributionService service(network, clock, sink,
                              net::ServeHost::buildServiceConfig(config));
  seedPages(service, pages);

  const std::uint32_t requestName = tracer.intern("core.request");
  const std::uint32_t publishName = tracer.intern("core.publish");
  const std::uint32_t codecName = tracer.intern("net.codec");
  tracer.reserve(tracer.spans().size() + 2 * ops.size());
  ReplayResult result;
  result.coreNs.reserve(ops.size());
  result.codecNs.reserve(ops.size());
  const std::uint64_t matchesBefore = service.broker().notificationCount();
  const std::int64_t origin = ops.empty() ? 0 : ops.front().send;
  std::string requestBytes, responseBytes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TracedOp& t = ops[i];
    const std::uint64_t opId = tracer.spans()[t.callSpan - 1].op;
    clock.advance(nsToSeconds(t.send - origin));

    const std::int64_t c0 = nowNs();
    if (t.op.publish) {
      service.handlePublish(
          {clock.now(), t.op.page, t.op.version, t.op.size});
    } else {
      service.handleRequest(t.op.proxy, t.op.page);
    }
    const std::int64_t c1 = nowNs();
    tracer.record(t.op.publish ? publishName : requestName, t.callSpan, opId,
                  c0, c1);

    const std::int64_t d0 = nowNs();
    WireFrame frame = frameOf(t.op);
    frame.seq = static_cast<std::uint32_t>(i + 1);
    requestBytes.clear();
    net::encodeFrame(frame, &requestBytes);
    const net::DecodeResult in = net::decodeFrame(requestBytes);
    ResponseBody response;
    response.op = static_cast<std::uint8_t>(frame.type());
    if (t.op.publish) {
      response.pages = sink.lastPush().pages;
      response.bytes = sink.lastPush().bytes;
    } else {
      const RequestDelivery& d = sink.lastRequest();
      response.hit = d.hit ? 1 : 0;
      response.stale = d.stale ? 1 : 0;
      response.bytes = d.bytesTransferred;
      response.responseTimeMs = d.responseTimeMs;
    }
    responseBytes.clear();
    net::encodeFrame(WireFrame{frame.seq, response}, &responseBytes);
    const net::DecodeResult out = net::decodeFrame(responseBytes);
    const std::int64_t d1 = nowNs();
    tracer.record(codecName, t.callSpan, opId, d0, d1);
    result.codecOk = result.codecOk &&
                     in.status == net::DecodeStatus::kOk &&
                     out.status == net::DecodeStatus::kOk &&
                     in.frame == frame;
    result.coreNs.push_back(c1 - c0);
    result.codecNs.push_back(d1 - d0);

    if (t.op.publish) {
      ++result.publishes;
      for (ProxyId p = 0; p < kProxies; ++p) {
        if (service.broker().aggregatedCount(p, t.op.page) == 0) continue;
        ++result.notified;
        if (service.engine().strategy(p).cachedVersion(t.op.page) ==
            t.op.version) {
          ++result.stored;
        }
      }
    }
  }
  result.matches = service.broker().notificationCount() - matchesBefore;
  return result;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Time a phase of `totalNs` spent in slots of one kind (0 = even slots,
/// untraced; 1 = odd slots, traced).
double slotSeconds(std::int64_t totalNs, int kind) {
  const std::int64_t full = totalNs / kSlotNs;
  std::int64_t ns = (full + (kind == 0 ? 1 : 0)) / 2 * kSlotNs;
  if (full % 2 == kind) ns += totalNs % kSlotNs;
  return nsToSeconds(ns);
}

}  // namespace

Report runServeMixed(const Options& options, Tracer* tracer) {
  Report report;
  const bool trace = tracer != nullptr;
  const PageSet pages;

  // Set-up: seeded daemon, connections.
  // Repeated for setup_s; the last set-up is the one measured.
  std::vector<double> setupSeconds;
  std::unique_ptr<RunningHost> host;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < (trace ? 1 : kSetups); ++i) {
    conns.clear();
    host.reset();
    const std::int64_t t0 = nowNs();
    host = std::make_unique<RunningHost>(pages);
    for (unsigned c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(pages, c, host->port()));
      if (trace) {
        // Reserved for more calls than a run makes: untouched capacity is
        // not resident, and no doubling copy lands in the RSS figures.
        const auto calls = static_cast<std::size_t>(options.seconds * 60000);
        conns.back()->tracer.reserve(2 * calls);
        conns.back()->traced.reserve(calls);
      }
    }
    setupSeconds.push_back(nsToSeconds(nowNs() - t0));
  }

  const double rssBefore = currentRssMb();
  const ProcMeter meter;
  const auto phaseSeed = [&](unsigned conn, unsigned phase) {
    return options.seed * 1000003 + 100 + conn * 10 + phase;
  };

  // Warm-up: closed loop, results discarded.
  const auto warmupNs =
      static_cast<std::int64_t>(options.seconds * kWarmupShare * 1e9);
  const std::int64_t warmupStart = nowNs();
  onEveryConnection(conns, [&](Connection& c) {
    c.ops.startPhase(phaseSeed(c.index, 0));
    closedLoop(c, c.warmup, warmupStart, warmupStart + warmupNs, false);
  });

  // Closed loop: throughput (traced run: alternating slots).
  const auto closedNs =
      static_cast<std::int64_t>(options.seconds * kClosedShare * 1e9);
  const auto closedWindows = static_cast<std::size_t>(closedNs / kWindowNs);
  const std::int64_t closedStart = nowNs();
  onEveryConnection(conns, [&](Connection& c) {
    c.ops.startPhase(phaseSeed(c.index, 1));
    c.slotOps[0] = c.slotOps[1] = 0;  // drop the warm-up's ops
    c.windowOps.assign(closedWindows, 0);
    closedLoop(c, c.closed, closedStart, closedStart + closedNs, trace);
  });

  // Open loop: latency from the due time.
  const double openSeconds = options.seconds * kOpenShare;
  const std::int64_t openStart = nowNs() + 1'000'000;  // one clock for all
  onEveryConnection(conns, [&](Connection& c) {
    c.ops.startPhase(phaseSeed(c.index, 2));
    openLoop(c, phaseSeed(c.index, 3), openStart, openSeconds, trace);
  });
  const ProcUsage usage = meter.read();
  double traceMb = 0.0;
  for (const auto& c : conns) {
    traceMb += c->tracer.spanMb() +
               static_cast<double>(c->traced.size() * sizeof(TracedOp)) /
                   (1024.0 * 1024.0);
  }
  const double rssGrowth = currentRssMb() - rssBefore - traceMb;

  host->stop();
  const net::DaemonStats stats = host->host().daemon().stats();
  const net::ServeCounters& sink = host->host().sink().counters();

  Tally warmup, closed, open, all;
  std::uint64_t slotOps[2] = {0, 0};
  std::uint64_t unsent = 0;
  std::vector<double> windowRates(closedWindows, 0.0);
  std::vector<Sample> latencyUs, lateUs;
  std::vector<double> rttP50Us, rttP99Us;
  for (const auto& c : conns) {
    rttP50Us.insert(rttP50Us.end(), c->rttP50Us.begin(), c->rttP50Us.end());
    rttP99Us.insert(rttP99Us.end(), c->rttP99Us.begin(), c->rttP99Us.end());
    for (std::size_t w = 0; w < closedWindows; ++w) {
      windowRates[w] += static_cast<double>(c->windowOps[w]) /
                        nsToSeconds(kWindowNs);
    }
    warmup.add(c->warmup);
    closed.add(c->closed);
    open.add(c->open);
    slotOps[0] += c->slotOps[0];
    slotOps[1] += c->slotOps[1];
    unsent += c->unsent;
    latencyUs.insert(latencyUs.end(), c->latencyUs.begin(),
                     c->latencyUs.end());
    lateUs.insert(lateUs.end(), c->lateUs.begin(), c->lateUs.end());
    if (!c->firstFailure.empty()) {
      report.check(false, "connection " + std::to_string(c->index) +
                              ": " + c->firstFailure);
    }
  }
  all.add(warmup);
  all.add(closed);
  all.add(open);
  report.attempted = closed.ops + open.ops + unsent;
  report.failed = closed.failed + open.failed;
  report.check(all.failed == unsent,
               std::to_string(all.failed - unsent) + " ops did not return ok");
  report.check(sink.requests == all.requests,
               "daemon saw " + std::to_string(sink.requests) +
                   " requests, clients sent " + std::to_string(all.requests));
  report.check(sink.hits == all.hits,
               "daemon counted " + std::to_string(sink.hits) +
                   " hits, clients saw " + std::to_string(all.hits));
  report.check(sink.pushes == all.publishes + kPages,
               "daemon counted " + std::to_string(sink.pushes) +
                   " publishes, clients sent " +
                   std::to_string(all.publishes + kPages));

  Tally measured = closed;
  measured.add(open);
  const auto openPercentile = [&](const std::vector<Sample>& samples,
                                  double q) {
    return windowedPercentile(
        samples, openStart, kLatencyWindowNs,
        static_cast<int>(openSeconds * 1e9 / kLatencyWindowNs), q);
  };
  if (!trace) {
    report.add("setup_s", median(setupSeconds), "s", setupSeconds.size());
    // Host noise only ever slows the program, so these are read from the
    // better quartile of the windows: they move when the program's speed
    // changes in most of the run, not when the hypervisor withholds a
    // vCPU for part of it.
    report.add("throughput_ops_s", percentile(windowRates, 75.0), "ops/s",
               closed.ops);
    report.add("latency_p50_us", percentile(rttP50Us, 25.0), "us",
               closed.ops);
    report.add("latency_p99_us", percentile(rttP99Us, 25.0), "us",
               closed.ops);
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("hit_ratio",
               ratio(static_cast<double>(open.hits),
                     static_cast<double>(open.requests)),
               "fraction", open.requests);
    report.add("traffic_mb", static_cast<double>(open.bytes) / 1e6, "MB",
               open.ops);
  } else {
    // Closed-loop slots alternate: compare ops per second of slot time.
    const double untracedRate = ratio(static_cast<double>(slotOps[0]),
                                      slotSeconds(closedNs, 0));
    const double tracedRate = ratio(static_cast<double>(slotOps[1]),
                                    slotSeconds(closedNs, 1));
    report.add("trace.overhead_frac", 1.0 - ratio(tracedRate, untracedRate),
               "fraction", slotOps[1]);

    std::vector<TracedOp> traced;
    for (auto& c : conns) {
      const auto base = static_cast<std::uint32_t>(tracer->spans().size());
      tracer->merge(c->tracer);
      for (TracedOp t : c->traced) {
        t.callSpan += base;
        traced.push_back(t);
      }
    }
    const ReplayResult r = replay(pages, traced, *tracer);
    report.check(r.codecOk, "wire codec round trip changed a frame");

    std::vector<double> rttUs, transportUs;
    double rttSum = 0, coreSum = 0, codecSum = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!traced[i].open) continue;
      const Span& call = tracer->spans()[traced[i].callSpan - 1];
      const auto rtt = static_cast<double>(call.end - call.start);
      const auto core = static_cast<double>(r.coreNs[i]);
      const auto codec = static_cast<double>(r.codecNs[i]);
      rttUs.push_back(rtt * 1e-3);
      transportUs.push_back((rtt - core - codec) * 1e-3);
      rttSum += rtt;
      coreSum += core;
      codecSum += codec;
    }
    const SpanTotals req = spanTotals(*tracer, "core.request");
    const SpanTotals pub = spanTotals(*tracer, "core.publish");
    const SpanTotals codec = spanTotals(*tracer, "net.codec");
    report.add("net.rtt_p50_us", percentile(rttUs, 50.0), "us", rttUs.size());
    report.add("net.codec_ns", codec.meanNs(), "ns", codec.count);
    report.add("net.transport_us", percentile(transportUs, 50.0), "us",
               transportUs.size());
    report.add("net.core_share", ratio(coreSum, rttSum), "fraction",
               rttUs.size());
    report.add("net.codec_share", ratio(codecSum, rttSum), "fraction",
               rttUs.size());
    report.add("core.request_ns", req.meanNs(), "ns", req.count);
    report.add("core.publish_ns", pub.meanNs(), "ns", pub.count);
    report.add("cache.push_store_ratio",
               ratio(static_cast<double>(r.stored),
                     static_cast<double>(r.notified)),
               "fraction", r.notified);
    report.add("pubsub.matches_per_publish",
               ratio(static_cast<double>(r.matches),
                     static_cast<double>(r.publishes)),
               "count", r.publishes);
    report.add("pubsub.proxies_per_publish",
               ratio(static_cast<double>(r.notified),
                     static_cast<double>(r.publishes)),
               "count", r.publishes);
  }
  report.add("loadgen.open_p50_us", openPercentile(latencyUs, 50.0), "us",
             latencyUs.size());
  report.add("loadgen.open_p99_us", openPercentile(latencyUs, 99.0), "us",
             latencyUs.size());
  report.add("loadgen.late_p99_us", openPercentile(lateUs, 99.0), "us",
             lateUs.size());
  report.add("loadgen.unsent", static_cast<double>(unsent), "count");
  report.add("net.frames_handled", static_cast<double>(stats.framesHandled),
             "count");
  report.add("net.error_responses", static_cast<double>(stats.errorResponses),
             "count");
  report.add("core.push_pages_per_publish",
             ratio(static_cast<double>(measured.pushPages),
                   static_cast<double>(measured.publishes)),
             "count", measured.publishes);
  report.add("cache.stale_frac",
             ratio(static_cast<double>(measured.stale),
                   static_cast<double>(measured.requests)),
             "fraction", measured.requests);
  report.add("pubsub.rss_growth_mb", rssGrowth, "MB");
  addProcUsage(report, usage);
  return report;
}

}  // namespace perfbench
