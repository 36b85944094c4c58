// Quickstart: wire up a ContentDistributionEngine by hand, subscribe a
// few users, publish pages and watch match-time pushing turn would-be
// misses into local hits.
//
//   $ ./quickstart
#include <cstdio>

#include "pscd/pscd.h"

using namespace pscd;

int main() {
  // 1. An overlay network: 1 publisher, 4 proxies, Waxman topology.
  Rng rng(2024);
  const Network network(NetworkParams{.numProxies = 4, .numTransitNodes = 3},
                        rng);

  // 2. A content-distribution engine running SG2 (push-time + access-
  //    time placement, frequency factor s - a) at every proxy.
  EngineConfig config;
  config.strategy = StrategyKind::kSG2;
  config.beta = 2.0;
  config.proxyCapacities.assign(4, 256 * 1024);  // 256 KiB per proxy
  ContentDistributionEngine engine(network, std::move(config));

  // 3. Users subscribe. Proxy 0 has two users interested in sports
  //    (category 1), proxy 2 has one user following page 42 explicitly.
  for (int user = 0; user < 2; ++user) {
    Subscription s;
    s.proxy = 0;
    s.conjuncts = {{Predicate::Kind::kCategoryEq, 1}};
    engine.broker().subscribe(s);
  }
  Subscription direct;
  direct.proxy = 2;
  direct.conjuncts = {{Predicate::Kind::kPageIdEq, 42}};
  engine.broker().subscribe(direct);

  // 4. The publisher releases a sports story as page 42.
  ContentAttributes attrs;
  attrs.page = 42;
  attrs.category = 1;
  attrs.keywords = {7, 9};
  const PushDelivery pub =
      engine.publish(PublishEvent{.time = 10.0, .page = 42, .version = 0,
                                  .size = 48 * 1024},
                     attrs);
  std::printf("publish: %u proxies notified, %u stored, %llu pages pushed\n",
              pub.proxiesNotified, pub.proxiesStored,
              static_cast<unsigned long long>(pub.pages));

  // 5. Requests: subscribers read from their local proxy cache; an
  //    unsubscribed proxy has to fetch from the publisher.
  const auto r0 = engine.request(/*proxy=*/0, /*page=*/42, /*now=*/60.0);
  const auto r2 = engine.request(2, 42, 61.0);
  const auto r3 = engine.request(3, 42, 62.0);
  std::printf("proxy 0 (subscribed):   %s\n", r0.hit ? "HIT" : "MISS");
  std::printf("proxy 2 (subscribed):   %s\n", r2.hit ? "HIT" : "MISS");
  std::printf("proxy 3 (unsubscribed): %s, fetched %llu bytes\n",
              r3.hit ? "HIT" : "MISS",
              static_cast<unsigned long long>(r3.bytesTransferred));

  // 6. The story is edited; the new version is re-pushed, so subscribed
  //    proxies never serve stale content.
  engine.publish(PublishEvent{.time = 100.0, .page = 42, .version = 1,
                              .size = 50 * 1024},
                 attrs);
  const auto fresh = engine.request(0, 42, 120.0);
  std::printf("proxy 0 after update:   %s (version %u)\n",
              fresh.hit ? "HIT" : "MISS", engine.latestVersion(42));
  return 0;
}
