// Golden digests of generated traces: a 64-bit FNV-1a digest of the
// saveWorkload bytes of three configurations, so any change to what the
// generators draw, or to the order the events come out in, fails here.
//
// A digest may only move with a change that means to alter the trace;
// the change then updates the constant and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string_view>

#include "pscd/workload/serialize.h"
#include "pscd/workload/workload.h"

namespace pscd {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t traceDigest(const WorkloadParams& params) {
  std::ostringstream out;
  saveWorkload(buildWorkload(params), out);
  return fnv1a(out.str());
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << "0x" << std::hex << v;
  return s.str();
}

void expectDigest(const WorkloadParams& params, std::uint64_t want) {
  const std::uint64_t got = traceDigest(params);
  EXPECT_EQ(got, want) << "trace digest is now " << hex(got) << ", pinned "
                       << hex(want);
}

TEST(WorkloadGoldenTest, NewsPaperScale) {
  WorkloadParams p = newsTraceParams();
  p.seed = 42;
  expectDigest(p, 0x8540d580059d2586ull);
}

TEST(WorkloadGoldenTest, AlternativePaperScale) {
  WorkloadParams p = alternativeTraceParams();
  p.seed = 42;
  expectDigest(p, 0x1e78b87774d9acebull);
}

// Every optional draw on: non-subscriber readers, subscription churn,
// imperfect subscriptions and non-uniform pool affinity.
TEST(WorkloadGoldenTest, MixedExtensions) {
  WorkloadParams p = newsTraceParams();
  p.request.notificationDrivenFraction = 0.5;
  p.subscription.churnPerDay = 0.05;
  p.subscription.quality = 0.7;
  p.request.poolAffinityAlpha = 1.0;
  p.seed = 42;
  expectDigest(p, 0x5b640d2d180d6b5cull);
}

}  // namespace
}  // namespace pscd
