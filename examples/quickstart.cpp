// Quickstart: wire up a DistributionService by hand, subscribe a few
// users, publish pages and watch match-time pushing turn would-be
// misses into local hits.
//
//   $ ./quickstart
#include <cstdio>

#include "pscd/pscd.h"

using namespace pscd;

namespace {

/// The service reports every answer to an EventSink as well as
/// returning it; this quickstart reads the returned records only.
class IgnoreSink final : public EventSink {
 public:
  void onPush(const PushDelivery&) override {}
  void onRequest(const RequestDelivery&) override {}
};

}  // namespace

int main() {
  // 1. An overlay network: 1 publisher, 4 proxies, Waxman topology.
  Rng rng(2024);
  const Network network(NetworkParams{.numProxies = 4, .numTransitNodes = 3},
                        rng);

  // 2. A content-distribution service running SG2 (push-time + access-
  //    time placement, frequency factor s - a) at every proxy. The
  //    driver owns time: it sets the clock before each operation.
  ServiceConfig config;
  config.engine.strategy = StrategyKind::kSG2;
  config.engine.beta = 2.0;
  config.engine.proxyCapacities.assign(4, 256 * 1024);  // 256 KiB/proxy
  ManualClock clock;
  IgnoreSink sink;
  DistributionService service(network, clock, sink, std::move(config));

  // 3. Users subscribe. Proxy 0 has two users interested in sports
  //    (category 1), proxy 2 has one user following page 42 explicitly.
  for (int user = 0; user < 2; ++user) {
    Subscription s;
    s.proxy = 0;
    s.conjuncts = {{Predicate::Kind::kCategoryEq, 1}};
    service.broker().subscribe(s);
  }
  Subscription direct;
  direct.proxy = 2;
  direct.conjuncts = {{Predicate::Kind::kPageIdEq, 42}};
  service.broker().subscribe(direct);

  // 4. The publisher releases a sports story as page 42.
  ContentAttributes attrs;
  attrs.page = 42;
  attrs.category = 1;
  attrs.keywords = {7, 9};
  clock.advance(10.0);
  const PushDelivery pub = service.handlePublish(
      PublishEvent{.time = 10.0, .page = 42, .version = 0, .size = 48 * 1024},
      attrs);
  std::printf("publish: %u proxies notified, %u stored, %llu pages pushed\n",
              pub.proxiesNotified, pub.proxiesStored,
              static_cast<unsigned long long>(pub.pages));

  // 5. Requests: subscribers read from their local proxy cache; an
  //    unsubscribed proxy has to fetch from the publisher.
  clock.advance(60.0);
  const auto r0 = service.handleRequest(/*proxy=*/0, /*page=*/42);
  const auto r2 = service.handleRequest(2, 42);
  const auto r3 = service.handleRequest(3, 42);
  std::printf("proxy 0 (subscribed):   %s\n", r0.hit ? "HIT" : "MISS");
  std::printf("proxy 2 (subscribed):   %s\n", r2.hit ? "HIT" : "MISS");
  std::printf("proxy 3 (unsubscribed): %s, fetched %llu bytes\n",
              r3.hit ? "HIT" : "MISS",
              static_cast<unsigned long long>(r3.bytesTransferred));

  // 6. The story is edited; the new version is re-pushed, so subscribed
  //    proxies never serve stale content.
  clock.advance(100.0);
  service.handlePublish(
      PublishEvent{.time = 100.0, .page = 42, .version = 1, .size = 50 * 1024},
      attrs);
  clock.advance(120.0);
  const auto fresh = service.handleRequest(0, 42);
  std::printf("proxy 0 after update:   %s (version %u)\n",
              fresh.hit ? "HIT" : "MISS",
              service.strategy(0).cachedVersion(42).value_or(0));
  return 0;
}
