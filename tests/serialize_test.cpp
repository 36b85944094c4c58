#include "pscd/workload/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <sstream>

namespace pscd {
namespace {

WorkloadParams tinyParams() {
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 200;
  p.publishing.numUpdatedPages = 80;
  p.publishing.maxVersionsPerPage = 10;
  p.request.totalRequests = 3000;
  p.request.numProxies = 8;
  p.request.minServerPool = 2;
  p.seed = 11;
  return p;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  const Workload w = buildWorkload(tinyParams());
  std::stringstream buf;
  saveWorkload(w, buf);
  const Workload r = loadWorkload(buf);
  EXPECT_EQ(r.numPages(), w.numPages());
  EXPECT_EQ(r.publishes.size(), w.publishes.size());
  ASSERT_EQ(r.requests.size(), w.requests.size());
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    EXPECT_EQ(r.requests[i].page, w.requests[i].page);
    EXPECT_EQ(r.requests[i].proxy, w.requests[i].proxy);
    EXPECT_DOUBLE_EQ(r.requests[i].time, w.requests[i].time);
  }
  EXPECT_EQ(r.subOffsets, w.subOffsets);
  ASSERT_EQ(r.subEntries.size(), w.subEntries.size());
  for (std::size_t i = 0; i < w.subEntries.size(); ++i) {
    EXPECT_EQ(r.subEntries[i], w.subEntries[i]);
  }
  EXPECT_EQ(r.uniqueBytesRequested, w.uniqueBytesRequested);
  EXPECT_DOUBLE_EQ(r.params.request.zipfAlpha, w.params.request.zipfAlpha);
}

TEST(SerializeTest, FileRoundTrip) {
  const Workload w = buildWorkload(tinyParams());
  const std::string path = testing::TempDir() + "/pscd_trace.bin";
  saveWorkloadFile(w, path);
  const Workload r = loadWorkloadFile(path);
  EXPECT_EQ(r.requests.size(), w.requests.size());
}

TEST(SerializeTest, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOTATRACE-----------------";
  EXPECT_THROW(loadWorkload(buf), std::runtime_error);
}

TEST(SerializeTest, TruncationRejected) {
  const Workload w = buildWorkload(tinyParams());
  std::stringstream buf;
  saveWorkload(w, buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(loadWorkload(cut), std::runtime_error);
}

std::string savedBytes(const Workload& w) {
  std::stringstream buf;
  saveWorkload(w, buf);
  return buf.str();
}

std::string loadError(const std::string& bytes) {
  std::stringstream in(bytes);
  try {
    loadWorkload(in);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

// Section offsets within the stream (all sizes are fixed-width PODs).
constexpr std::size_t kParamsOffset = 8 + sizeof(std::uint32_t);
constexpr std::size_t kPagesOffset = kParamsOffset + sizeof(WorkloadParams);

TEST(SerializeTest, TruncationErrorNamesOffendingField) {
  const std::string full = savedBytes(buildWorkload(tinyParams()));
  EXPECT_NE(loadError(full.substr(0, 5)).find("magic"), std::string::npos);
  EXPECT_NE(loadError(full.substr(0, kParamsOffset + 7)).find("params"),
            std::string::npos);
  // Inside the pages payload, past its length prefix.
  EXPECT_NE(loadError(full.substr(0, kPagesOffset + 8 + 3)).find("pages"),
            std::string::npos);
}

TEST(SerializeTest, OversizedLengthFieldRejectedByName) {
  std::string bytes = savedBytes(buildWorkload(tinyParams()));
  // Overwrite the pages vector length with an absurd element count.
  const std::uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + kPagesOffset, &huge, sizeof(huge));
  EXPECT_NE(loadError(bytes).find("bad length for pages"),
            std::string::npos);
}

TEST(SerializeTest, InvalidNotificationDrivenByteRejected) {
  Workload w = buildWorkload(tinyParams());
  ASSERT_FALSE(w.requests.empty());
  std::string bytes = savedBytes(w);
  // Locate the first RequestEvent record: params, pages and publishes
  // precede the requests vector, each vector with a u64 length prefix.
  const std::size_t requestsOffset =
      kPagesOffset + 8 + w.pages.size() * sizeof(PageInfo) + 8 +
      w.publishes.size() * sizeof(PublishEvent) + 8;
  // The bool lives after time (8) + page (4) + proxy (4).
  bytes[requestsOffset + 16] = 0x07;
  EXPECT_NE(loadError(bytes).find("notificationDriven"), std::string::npos);
}

TEST(SerializeTest, MoreThan2To31ProxiesRejectedByName) {
  std::string bytes = savedBytes(buildWorkload(tinyParams()));
  const std::uint32_t tooMany = kMaxProxies + 1;
  std::memcpy(bytes.data() + kParamsOffset +
                  offsetof(WorkloadParams, request) +
                  offsetof(RequestParams, numProxies),
              &tooMany, sizeof(tooMany));
  EXPECT_NE(loadError(bytes).find("2^31"), std::string::npos);
}

TEST(SerializeTest, RequestRecordsStay24BytesOnDisk) {
  const Workload w = buildWorkload(tinyParams());
  // RequestEvent is 16 bytes in memory; the format keeps its 24-byte
  // records, so traces written before the packing still load.
  const std::size_t requestsOffset =
      kPagesOffset + 8 + w.pages.size() * sizeof(PageInfo) + 8 +
      w.publishes.size() * sizeof(PublishEvent);
  const std::string bytes = savedBytes(w);
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + requestsOffset, sizeof(count));
  ASSERT_EQ(count, w.requests.size());
  const std::size_t subOffsetsOffset = requestsOffset + 8 + count * 24;
  std::uint64_t offsets = 0;
  std::memcpy(&offsets, bytes.data() + subOffsetsOffset, sizeof(offsets));
  EXPECT_EQ(offsets, w.subOffsets.size());
}

TEST(SerializeTest, RoundTripPreservesNotificationDrivenFlags) {
  Workload w = buildWorkload(tinyParams());
  ASSERT_GE(w.requests.size(), 4u);
  w.requests[1].notificationDriven = false;
  w.requests[3].notificationDriven = false;
  std::stringstream buf;
  saveWorkload(w, buf);
  const Workload r = loadWorkload(buf);
  ASSERT_EQ(r.requests.size(), w.requests.size());
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    EXPECT_EQ(r.requests[i].notificationDriven,
              w.requests[i].notificationDriven);
  }
}

TEST(SerializeTest, NonFiniteEventTimeRejectedOnLoad) {
  Workload w = buildWorkload(tinyParams());
  ASSERT_FALSE(w.publishes.empty());
  w.publishes.front().time = std::numeric_limits<double>::quiet_NaN();
  std::stringstream buf;
  saveWorkload(w, buf);
  EXPECT_THROW(loadWorkload(buf), std::logic_error);
}

TEST(SerializeTest, SavedBytesAreDeterministic) {
  const Workload w = buildWorkload(tinyParams());
  // Two saves must be byte-identical: the request records go through a
  // zero-padded disk mirror, so no uninitialized padding leaks out.
  EXPECT_EQ(savedBytes(w), savedBytes(w));
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(loadWorkloadFile("/nonexistent/pscd.bin"),
               std::runtime_error);
}

TEST(SerializeTest, PublishCsvHasHeaderAndRows) {
  const Workload w = buildWorkload(tinyParams());
  std::ostringstream os;
  exportPublishesCsv(w, os);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("time,page,version,size", 0), 0u);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(out.begin(), out.end(), '\n')),
            w.publishes.size() + 1);
}

TEST(SerializeTest, RequestsCsvRowCount) {
  const Workload w = buildWorkload(tinyParams());
  std::ostringstream os;
  exportRequestsCsv(w, os);
  const std::string out = os.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            w.requests.size() + 1);
}

TEST(SerializeTest, SubscriptionsCsvRowCount) {
  const Workload w = buildWorkload(tinyParams());
  std::ostringstream os;
  exportSubscriptionsCsv(w, os);
  const std::string out = os.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            w.subEntries.size() + 1);
}

}  // namespace
}  // namespace pscd
