// Lockstep differential drivers: each runs a seeded randomized operation
// stream against a production implementation and its naive reference
// model (oracle/reference_*.h), comparing observable outputs after every
// step. On the first mismatch — or on any exception, including a
// CheckFailure from the production invariant validators — the driver
// stops and returns a minimal replayable trace: the seed plus the
// 0-based step index of the divergence. Re-running the same driver with
// the same config replays the identical stream, so `seed + step` is a
// complete bug report.
//
// Every config carries an optional sabotage hook (invoked once, before
// the operation at `sabotageStep` executes). Tests use it to mutate the
// production state through the InvariantCorrupter friend backdoor and
// assert that the driver actually detects a broken implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pscd/cache/strategy.h"
#include "pscd/pubsub/covering.h"
#include "pscd/pubsub/matcher.h"
#include "pscd/util/types.h"

namespace pscd {

inline constexpr std::size_t kNoSabotage = static_cast<std::size_t>(-1);

/// Outcome of one lockstep run. `step` is only meaningful when
/// `diverged` is set; `what` describes the first mismatch.
struct LockstepReport {
  bool diverged = false;
  std::uint64_t seed = 0;
  std::size_t step = 0;
  std::size_t stepsRun = 0;
  std::string what;

  explicit operator bool() const { return diverged; }
};

/// "<subsystem> diverged at seed=S step=N: <what>" (or an all-clear).
std::string toString(const LockstepReport& report);

// ------------------------------------------------------------ matcher --

struct MatcherLockstepConfig {
  std::uint64_t seed = 1;
  std::size_t steps = 1000;
  std::uint32_t numProxies = 8;
  std::uint32_t numPages = 32;
  std::uint32_t numCategories = 6;
  std::uint32_t numKeywords = 16;
  /// Share of steps that remove a subscription; adds take the rest of
  /// the 60% of steps that are not publishes. Above 0.30, removals
  /// outnumber adds, so buckets empty and their slots are reused again
  /// and again.
  double removeShare = 0.15;
  std::size_t sabotageStep = kNoSabotage;
  std::function<void(MatchingEngine&)> sabotage;
};

/// Ops: add subscription (compares ids), remove (compares success; the
/// id may already be gone), publish (compares the matched id set and
/// per-proxy counts). The production invariants are validated
/// periodically.
LockstepReport runMatcherLockstep(const MatcherLockstepConfig& config);

// ----------------------------------------------------------- covering --

struct CoveringLockstepConfig {
  std::uint64_t seed = 1;
  std::size_t steps = 1000;
  /// Small vocabulary so absorption/eviction happens constantly.
  std::uint32_t numCategories = 3;
  std::uint32_t numKeywords = 5;
  std::size_t sabotageStep = kNoSabotage;
  std::function<void(CoveringSet&)> sabotage;
};

/// Ops: add (compares the accepted flag, the size, and the full member
/// multiset in canonical form), isCovered probe, matches probe.
LockstepReport runCoveringLockstep(const CoveringLockstepConfig& config);

// -------------------------------------------------------------- cache --

struct CacheLockstepConfig {
  std::uint64_t seed = 1;
  std::size_t steps = 1000;
  std::uint32_t numPages = 48;
  Bytes minPageSize = 1;
  Bytes maxPageSize = 64;
  /// Deliberately tight so eviction churn dominates.
  Bytes capacity = 256;
  double pushProbability = 0.45;
  std::function<std::unique_ptr<DistributionStrategy>()> makeProduction;
  std::function<std::unique_ptr<DistributionStrategy>()> makeReference;
  std::size_t sabotageStep = kNoSabotage;
  std::function<void(DistributionStrategy&)> sabotage;
};

/// Ops: push (new version, redrawn size) or request of a random page;
/// after every op the Push/RequestOutcome and usedBytes() of both sides
/// must agree. Production invariants are validated periodically. Pushes
/// are only generated for pages with at least one matching subscription,
/// mirroring the engine (proxies without matches are not notified).
LockstepReport runCacheLockstep(const CacheLockstepConfig& config);

/// Runs a batch of cache lockstep configs across `jobs` worker threads
/// (0 = hardware_concurrency, 1 = inline on the calling thread) and
/// returns the reports in input order. Every run is self-contained and
/// fully determined by its config, so the reports — including the exact
/// (seed, step) divergence coordinates — match a one-by-one serial run.
std::vector<LockstepReport> runCacheLockstepBatch(
    const std::vector<CacheLockstepConfig>& configs, unsigned jobs = 0);

// ------------------------------------------------------ shortest paths --

struct PathsLockstepConfig {
  std::uint64_t seed = 1;
  std::size_t steps = 1000;
  std::uint32_t minNodes = 2;
  std::uint32_t maxNodes = 40;
  /// Per-pair edge probability; low enough that some graphs come out
  /// disconnected, so the +infinity contract is exercised too.
  double edgeProbability = 0.12;
  /// A fresh random graph is generated every `graphEvery` steps.
  std::size_t graphEvery = 8;
  std::size_t sabotageStep = kNoSabotage;
  /// Applied to the production (Dijkstra) distance vector — simulates a
  /// broken shortest-path implementation.
  std::function<void(std::vector<double>&)> sabotage;
};

/// Each step: run Dijkstra and Bellman–Ford from a random source on the
/// current random graph and compare all distances (relative tolerance
/// 1e-9); additionally validates the Dijkstra output with
/// checkShortestPathTree().
LockstepReport runPathsLockstep(const PathsLockstepConfig& config);

}  // namespace pscd
