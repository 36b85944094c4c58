// Fuzz target for the daemon's connection core: arbitrary chunks fed to
// one Session over a small SG2 service on a fixed clock, with no socket.
// The first input byte picks the mode (bit 0) and the shed threshold
// (bits 1-2, 0 = off):
//
//   raw         — the rest is a list of chunks, each a length byte and
//                 then up to that many wire bytes, so ids, counts and
//                 sizes are whatever the input says;
//   structured  — a FuzzDecoder builds well-formed frames with small
//                 ids (so operations reach the service and mostly
//                 succeed), flips the odd byte, and cuts the stream into
//                 chunks at decoder-chosen points.
//
// Each chunk is one readable event. After each one the target checks,
// against its own decode of every byte fed so far:
//   * one RESPONSE per decoded frame, in order, with the frame's seq and
//     op, status=kOverloaded exactly where the shed threshold says;
//   * a close exactly where that decode meets an error (with the
//     decoder's message) or a client RESPONSE, and no close before;
//   * no exception escapes receive();
//   * fewer than kWireHeaderBytes + 28 bytes stay buffered;
//   * the service's checkInvariants() holds.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "fuzz_check.h"
#include "fuzz_decoder.h"
#include "pscd/net/daemon.h"

namespace {

using pscd::net::DecodeResult;
using pscd::net::DecodeStatus;
using pscd::net::FrameType;
using pscd::net::ResponseBody;
using pscd::net::ServeHost;
using pscd::net::WireFrame;

pscd::net::ServeHostConfig hostConfig() {
  pscd::net::ServeHostConfig config;
  config.numProxies = 4;
  config.numTransitNodes = 2;
  config.strategy = pscd::StrategyKind::kSG2;
  config.capacityPerProxy = 4096;
  return config;
}

/// One session and the target's own reading of the stream it was fed.
class Harness {
 public:
  explicit Harness(std::size_t shedThreshold)
      : network_(ServeHost::buildNetwork(hostConfig())),
        service_(network_, clock_, sink_,
                 ServeHost::buildServiceConfig(hostConfig())),
        session_(service_, clock_, stats_, shedThreshold),
        shedThreshold_(shedThreshold) {}

  bool open() const { return !closed_; }

  /// Feeds `chunk` as one readable event and checks the outcome.
  void feed(std::string_view chunk) {
    if (closed_) return;
    stream_.append(chunk);
    struct Answer {
      std::uint32_t seq;
      FrameType op;
      bool shed;
    };
    std::vector<Answer> expected;
    std::optional<std::string> closeWhy;
    while (true) {
      const DecodeResult r =
          pscd::net::decodeFrame(std::string_view(stream_).substr(decoded_));
      if (r.status == DecodeStatus::kNeedMore) break;
      if (r.status == DecodeStatus::kError) {
        closeWhy = r.error;
        ++decodeErrors_;
        break;
      }
      decoded_ += r.consumed;
      if (r.frame.type() == FrameType::kResponse) {
        closeWhy = "client sent RESPONSE";
        ++protocolErrors_;
        break;
      }
      const bool shed = shedThreshold_ > 0 &&
                        r.frame.type() == FrameType::kRequest &&
                        expected.size() >= shedThreshold_;
      expected.push_back({r.frame.seq, r.frame.type(), shed});
      ++frames_;
      if (shed) ++shed_;
    }

    std::optional<std::string> why;
    session_.beginRead();
    try {
      why = session_.receive(chunk);
      service_.checkInvariants();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "exception escaped: %s\n", e.what());
      FUZZ_ASSERT(false);
    }
    FUZZ_ASSERT(why == closeWhy);

    std::string_view out = session_.unsent();
    for (const Answer& answer : expected) {
      const DecodeResult r = pscd::net::decodeFrame(out);
      FUZZ_ASSERT(r.status == DecodeStatus::kOk);
      FUZZ_ASSERT(r.frame.type() == FrameType::kResponse);
      FUZZ_ASSERT(r.frame.seq == answer.seq);
      const auto& body = std::get<ResponseBody>(r.frame.body);
      FUZZ_ASSERT(body.op == static_cast<std::uint8_t>(answer.op));
      FUZZ_ASSERT(body.overloaded() == answer.shed);
      out.remove_prefix(r.consumed);
    }
    FUZZ_ASSERT(out.empty());
    session_.markSent(session_.unsent().size());  // the peer reads it all

    FUZZ_ASSERT(session_.buffered() < pscd::net::kWireHeaderBytes + 28);
    FUZZ_ASSERT(stats_.framesHandled == frames_);
    FUZZ_ASSERT(stats_.overloadShed == shed_);
    FUZZ_ASSERT(stats_.decodeErrors == decodeErrors_);
    FUZZ_ASSERT(stats_.protocolErrors == protocolErrors_);
    closed_ = why.has_value();
  }

 private:
  pscd::Network network_;
  pscd::ManualClock clock_;
  pscd::net::WireSink sink_;
  pscd::DistributionService service_;
  pscd::net::DaemonStats stats_;
  pscd::net::Session session_;
  std::size_t shedThreshold_;
  std::string stream_;       // every byte fed so far
  std::size_t decoded_ = 0;  // prefix of stream_ decoded into frames
  std::uint64_t frames_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t decodeErrors_ = 0;
  std::uint64_t protocolErrors_ = 0;
  bool closed_ = false;
};

/// A well-formed client frame (1 in 16 a RESPONSE) with small ids, so
/// most operations find their proxy and page.
WireFrame buildFrame(pscd::fuzz::FuzzDecoder& in, std::uint32_t seq) {
  WireFrame frame;
  frame.seq = seq;
  const std::uint8_t kind = in.u8() % 16;
  const pscd::ProxyId proxy = in.u8() % 5;  // 4 proxies and one past them
  const pscd::PageId page = in.u8() % 8;
  if (kind < 4) {
    frame.body = pscd::net::SubscribeBody{proxy, page, in.u8() % 4u};
  } else if (kind < 7) {
    frame.body = pscd::net::UnsubscribeBody{proxy, page, in.u8() % 4u};
  } else if (kind < 11) {
    frame.body = pscd::net::PublishBody{page, in.u8(), 16u * in.u8()};
  } else if (kind < 15) {
    frame.body = pscd::net::RequestBody{proxy, page};
  } else {
    ResponseBody response;
    response.op = static_cast<std::uint8_t>(FrameType::kRequest);
    frame.body = response;
  }
  return frame;
}

void rawCase(Harness& harness, const std::uint8_t* data, std::size_t size) {
  for (std::size_t at = 0; at < size && harness.open();) {
    const std::size_t n = std::min<std::size_t>(data[at], size - at - 1);
    harness.feed(std::string_view(
        reinterpret_cast<const char*>(data) + at + 1, n));
    at += 1 + n;
  }
}

void structuredCase(Harness& harness, pscd::fuzz::FuzzDecoder& in) {
  std::string pending;
  std::uint32_t seq = 1;
  while (!in.done() && harness.open()) {
    const std::uint8_t op = in.u8();
    if (op < 160) {
      pscd::net::encodeFrame(buildFrame(in, seq++), &pending);
    } else if (op < 248) {
      const std::size_t cut = in.u8() % (pending.size() + 1);
      harness.feed(std::string_view(pending).substr(0, cut));
      pending.erase(0, cut);
    } else if (!pending.empty()) {
      const std::size_t at = in.u8() % pending.size();
      pending[at] = static_cast<char>(pending[at] ^ (in.u8() | 1));
    }
  }
  harness.feed(pending);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::uint8_t mode = size > 0 ? data[0] : 0;
  Harness harness((mode >> 1) & 3);
  if ((mode & 1) != 0) {
    pscd::fuzz::FuzzDecoder in(data + 1, size - 1);
    structuredCase(harness, in);
  } else if (size > 0) {
    rawCase(harness, data + 1, size - 1);
  }
  return 0;
}
