// Umbrella header for the pscd library: content distribution for
// publish/subscribe services (Chen, LaPaugh & Singh, Middleware 2003).
//
// Typical entry points:
//   * pscd::DistributionService        — online publish/subscribe/request
//     API with match-time pushing and access-time caching (core/service.h)
//   * pscd::buildWorkload              — MSNBC-style synthetic workload
//   * pscd::Simulator                  — trace-driven evaluation
//   * pscd::ExperimentContext          — canonical paper experiments
//
// pscd-lint: allow-file(unused-include) umbrella header: every include
// is a deliberate re-export for downstream convenience, not a use site
#pragma once

#include "pscd/cache/dual_cache.h"
#include "pscd/cache/dual_methods.h"
#include "pscd/cache/gds_family.h"
#include "pscd/cache/lru_strategy.h"
#include "pscd/cache/oracle_strategy.h"
#include "pscd/cache/strategy.h"
#include "pscd/cache/strategy_factory.h"
#include "pscd/cache/sub_strategy.h"
#include "pscd/cache/value_cache.h"
#include "pscd/core/fault_plan.h"
#include "pscd/core/latency.h"
#include "pscd/core/runtime.h"
#include "pscd/core/service.h"
#include "pscd/net/client.h"
#include "pscd/net/daemon.h"
#include "pscd/net/histogram.h"
#include "pscd/net/pacing.h"
#include "pscd/net/wire.h"
#include "pscd/net/wire_runtime.h"
#include "pscd/pubsub/attributes.h"
#include "pscd/pubsub/broker.h"
#include "pscd/pubsub/covering.h"
#include "pscd/pubsub/matcher.h"
#include "pscd/pubsub/routing.h"
#include "pscd/pubsub/subscription.h"
#include "pscd/sim/experiment.h"
#include "pscd/sim/hierarchy.h"
#include "pscd/sim/metrics.h"
#include "pscd/sim/simulator.h"
#include "pscd/topology/barabasi_albert.h"
#include "pscd/topology/graph.h"
#include "pscd/topology/link_state.h"
#include "pscd/topology/network.h"
#include "pscd/topology/shortest_path.h"
#include "pscd/topology/waxman.h"
#include "pscd/util/args.h"
#include "pscd/util/csv.h"
#include "pscd/util/distributions.h"
#include "pscd/util/hot.h"
#include "pscd/util/json.h"
#include "pscd/util/log.h"
#include "pscd/util/mutex.h"
#include "pscd/util/rng.h"
#include "pscd/util/run_all.h"
#include "pscd/util/stats.h"
#include "pscd/util/table.h"
#include "pscd/util/thread_annotations.h"
#include "pscd/util/types.h"
#include "pscd/workload/params.h"
#include "pscd/workload/publishing.h"
#include "pscd/workload/requests.h"
#include "pscd/workload/serialize.h"
#include "pscd/workload/subscriptions.h"
#include "pscd/workload/workload.h"
