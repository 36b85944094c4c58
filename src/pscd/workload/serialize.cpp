#include "pscd/workload/serialize.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "pscd/util/csv.h"

namespace pscd {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'C', 'D', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kFormatVersion = 2;

/// Total payload cap per vector (1 GiB); a length field pointing past
/// this is malformed, not merely large.
constexpr std::uint64_t kMaxVecBytes = 1ull << 30;

/// On-disk request record (24 bytes, the format's since version 2). The
/// in-memory RequestEvent packs proxy and flag into 31 + 1 bits; on disk
/// they keep their own fields, and the flag is a uint8_t that the loader
/// validates, since a raw byte other than 0/1 is no bool. The explicit
/// pad makes the written bytes fully deterministic.
struct RequestEventDisk {
  SimTime time = 0.0;
  PageId page = kInvalidPage;
  ProxyId proxy = 0;
  std::uint8_t notificationDriven = 1;
  std::uint8_t pad[7] = {};
};
static_assert(sizeof(RequestEventDisk) == 24);

/// On-disk mirror of SubscriptionChurnEvent with its 4-byte tail padding
/// made explicit and zero: the in-memory events carry whatever the stack
/// held there, so saving them raw wrote bytes that varied from build to
/// build.
struct ChurnEventDisk {
  SimTime time = 0.0;
  ProxyId proxy = 0;
  PageId fromPage = kInvalidPage;
  PageId toPage = kInvalidPage;
  std::uint32_t pad = 0;
};
static_assert(sizeof(ChurnEventDisk) == sizeof(SubscriptionChurnEvent));

/// The params block is WorkloadParams' own layout: 304 bytes with three
/// 4-byte holes, each a uint32_t followed by a double.
static_assert(sizeof(WorkloadParams) == 304);
constexpr std::size_t kParamsHoles[] = {
    offsetof(WorkloadParams, publishing) +
        offsetof(PublishingParams, maxVersionsPerPage) + 4,
    offsetof(WorkloadParams, request) + offsetof(RequestParams, numProxies) +
        4,
    offsetof(WorkloadParams, request) +
        offsetof(RequestParams, minServerPool) + 4,
};
static_assert(offsetof(PublishingParams, sizeMu) ==
              offsetof(PublishingParams, maxVersionsPerPage) + 8);
static_assert(offsetof(RequestParams, zipfAlpha) ==
              offsetof(RequestParams, numProxies) + 8);
static_assert(offsetof(RequestParams, poolAffinityAlpha) ==
              offsetof(RequestParams, minServerPool) + 8);

/// The params bytes with the holes zeroed: they hold whatever the
/// caller's object held, and equal params must save to equal bytes.
std::array<char, sizeof(WorkloadParams)> paramsBytes(const WorkloadParams& p) {
  std::array<char, sizeof(WorkloadParams)> bytes;
  std::memcpy(bytes.data(), &p, sizeof(p));
  for (const std::size_t hole : kParamsHoles) {
    std::memset(bytes.data() + hole, 0, 4);
  }
  return bytes;
}

void writeBytes(std::ostream& out, const void* data, std::size_t n) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out) throw std::runtime_error("saveWorkload: write failed");
}

void readBytes(std::istream& in, void* data, std::size_t n,
               const char* field) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (in.gcount() != static_cast<std::streamsize>(n)) {
    throw std::runtime_error(
        std::string("loadWorkload: truncated input reading ") + field);
  }
}

template <typename T>
void writePod(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  writeBytes(out, &v, sizeof(T));
}

template <typename T>
T readPod(std::istream& in, const char* field) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  readBytes(in, &v, sizeof(T), field);
  return v;
}

template <typename T>
void writeVec(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  writePod<std::uint64_t>(out, v.size());
  if (!v.empty()) writeBytes(out, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> readVec(std::istream& in, const char* field) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = readPod<std::uint64_t>(in, field);
  if (n > kMaxVecBytes / sizeof(T)) {
    throw std::runtime_error(std::string("loadWorkload: bad length for ") +
                             field);
  }
  // Read in bounded chunks instead of allocating the full claimed size
  // up front: a corrupt length field then fails on the first short read
  // rather than committing gigabytes for data that is not there.
  constexpr std::size_t kChunkBytes = 1 << 20;
  const std::size_t chunkElems =
      kChunkBytes / sizeof(T) > 0 ? kChunkBytes / sizeof(T) : 1;
  std::vector<T> v;
  std::size_t got = 0;
  while (got < n) {
    const std::size_t take =
        std::min<std::size_t>(chunkElems, static_cast<std::size_t>(n) - got);
    v.resize(got + take);
    readBytes(in, v.data() + got, take * sizeof(T), field);
    got += take;
  }
  return v;
}

std::vector<RequestEventDisk> toDisk(const std::vector<RequestEvent>& v) {
  std::vector<RequestEventDisk> disk(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    disk[i].time = v[i].time;
    disk[i].page = v[i].page;
    disk[i].proxy = v[i].proxy;
    disk[i].notificationDriven = v[i].notificationDriven ? 1 : 0;
  }
  return disk;
}

std::vector<RequestEvent> fromDisk(const std::vector<RequestEventDisk>& v) {
  std::vector<RequestEvent> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i].notificationDriven > 1) {
      throw std::runtime_error(
          "loadWorkload: invalid notificationDriven byte in requests");
    }
    if (v[i].proxy >= kMaxProxies) {
      throw std::runtime_error(
          "loadWorkload: request proxy id past the 2^31-proxy limit");
    }
    out[i].time = v[i].time;
    out[i].page = v[i].page;
    out[i].proxy = v[i].proxy;
    out[i].notificationDriven = v[i].notificationDriven != 0;
  }
  return out;
}

std::vector<ChurnEventDisk> toDisk(
    const std::vector<SubscriptionChurnEvent>& v) {
  std::vector<ChurnEventDisk> disk(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    disk[i].time = v[i].time;
    disk[i].proxy = v[i].proxy;
    disk[i].fromPage = v[i].fromPage;
    disk[i].toPage = v[i].toPage;
  }
  return disk;
}

std::vector<SubscriptionChurnEvent> fromDisk(
    const std::vector<ChurnEventDisk>& v) {
  std::vector<SubscriptionChurnEvent> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i].time = v[i].time;
    out[i].proxy = v[i].proxy;
    out[i].fromPage = v[i].fromPage;
    out[i].toPage = v[i].toPage;
  }
  return out;
}

}  // namespace

void saveWorkload(const Workload& w, std::ostream& out) {
  writeBytes(out, kMagic, sizeof(kMagic));
  writePod(out, kFormatVersion);
  static_assert(std::is_trivially_copyable_v<WorkloadParams>);
  writePod(out, paramsBytes(w.params));
  writeVec(out, w.pages);
  writeVec(out, w.publishes);
  writeVec(out, toDisk(w.requests));
  writeVec(out, w.subOffsets);
  writeVec(out, w.subEntries);
  writeVec(out, toDisk(w.churn));
  writeVec(out, w.uniqueBytesRequested);
}

Workload loadWorkload(std::istream& in) {
  char magic[sizeof(kMagic)];
  readBytes(in, magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("loadWorkload: bad magic");
  }
  if (readPod<std::uint32_t>(in, "format version") != kFormatVersion) {
    throw std::runtime_error("loadWorkload: unsupported format version");
  }
  Workload w;
  w.params = readPod<WorkloadParams>(in, "params");
  if (w.params.request.numProxies > kMaxProxies) {
    throw std::runtime_error("loadWorkload: more than 2^31 proxies");
  }
  w.pages = readVec<PageInfo>(in, "pages");
  w.publishes = readVec<PublishEvent>(in, "publishes");
  w.requests = fromDisk(readVec<RequestEventDisk>(in, "requests"));
  w.subOffsets = readVec<std::uint32_t>(in, "subOffsets");
  w.subEntries = readVec<Notification>(in, "subEntries");
  w.churn = fromDisk(readVec<ChurnEventDisk>(in, "churn"));
  w.uniqueBytesRequested = readVec<Bytes>(in, "uniqueBytesRequested");
  w.validate();
  return w;
}

void saveWorkloadFile(const Workload& w, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("saveWorkloadFile: cannot open " + path);
  saveWorkload(w, out);
}

Workload loadWorkloadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("loadWorkloadFile: cannot open " + path);
  return loadWorkload(in);
}

void exportPublishesCsv(const Workload& w, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"time", "page", "version", "size"});
  for (const auto& e : w.publishes) {
    csv.field(e.time)
        .field(static_cast<std::uint64_t>(e.page))
        .field(static_cast<std::uint64_t>(e.version))
        .field(static_cast<std::uint64_t>(e.size));
    csv.endRow();
  }
}

void exportRequestsCsv(const Workload& w, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"time", "page", "proxy", "notification_driven"});
  for (const auto& r : w.requests) {
    csv.field(r.time)
        .field(static_cast<std::uint64_t>(r.page))
        .field(static_cast<std::uint64_t>(r.proxy))
        .field(static_cast<std::uint64_t>(r.notificationDriven ? 1 : 0));
    csv.endRow();
  }
}

void exportSubscriptionsCsv(const Workload& w, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"page", "proxy", "subscriptions"});
  for (PageId page = 0; page < w.numPages(); ++page) {
    for (const auto& n : w.subscriptions(page)) {
      csv.field(static_cast<std::uint64_t>(page))
          .field(static_cast<std::uint64_t>(n.proxy))
          .field(static_cast<std::uint64_t>(n.matchCount));
      csv.endRow();
    }
  }
}

}  // namespace pscd
