// In-process tests of the daemon's wire protocol: a Session fed chunks
// directly, over a small SG2 service on a fixed clock. No socket, no
// epoll and no Daemon take part, so these run the exact decode /
// dispatch / encode path that pscd_daemon serves, byte for byte.
#include "pscd/net/daemon.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pscd::net {
namespace {

ServeHostConfig hostConfig() {
  ServeHostConfig config;
  config.numProxies = 4;
  config.numTransitNodes = 2;
  config.strategy = StrategyKind::kSG2;
  config.capacityPerProxy = 4096;
  return config;
}

/// Everything a Session needs, and one session over it.
struct Fixture {
  explicit Fixture(std::size_t shedThreshold = 0)
      : network(ServeHost::buildNetwork(hostConfig())),
        service(network, clock, sink,
                ServeHost::buildServiceConfig(hostConfig())),
        session(service, clock, stats, shedThreshold) {}

  Network network;
  ManualClock clock;
  WireSink sink;
  DistributionService service;
  DaemonStats stats;
  Session session;
};

WireFrame frameOf(std::uint32_t seq, decltype(WireFrame::body) body) {
  WireFrame frame;
  frame.seq = seq;
  frame.body = body;
  return frame;
}

/// A pipelined burst of every client frame type, two of whose
/// operations fail (an unknown page and a proxy off the overlay).
std::vector<WireFrame> burstFrames() {
  std::vector<WireFrame> frames;
  std::uint32_t seq = 100;
  for (PageId page = 0; page < 6; ++page) {
    frames.push_back(frameOf(seq++, PublishBody{page, 1, 100 + 40 * page}));
  }
  frames.push_back(frameOf(seq++, SubscribeBody{1, 2, 3}));
  frames.push_back(frameOf(seq++, RequestBody{1, 2}));
  frames.push_back(frameOf(seq++, RequestBody{1, 2}));
  frames.push_back(frameOf(seq++, RequestBody{3, 99}));  // unknown page
  frames.push_back(frameOf(seq++, UnsubscribeBody{1, 2, 1}));
  frames.push_back(frameOf(seq++, PublishBody{2, 2, 300}));
  frames.push_back(frameOf(seq++, RequestBody{0, 5}));
  frames.push_back(frameOf(seq++, RequestBody{7, 1}));  // proxy off overlay
  return frames;
}

std::string encodeAll(const std::vector<WireFrame>& frames) {
  std::string bytes;
  for (const WireFrame& frame : frames) encodeFrame(frame, &bytes);
  return bytes;
}

/// The frames in `out`, which must hold whole frames only.
std::vector<WireFrame> decodeAll(std::string_view out) {
  std::vector<WireFrame> frames;
  while (!out.empty()) {
    const DecodeResult r = decodeFrame(out);
    EXPECT_EQ(r.status, DecodeStatus::kOk) << r.error;
    if (r.status != DecodeStatus::kOk) break;
    frames.push_back(r.frame);
    out.remove_prefix(r.consumed);
  }
  return frames;
}

/// True when the session takes `chunk` and keeps the connection.
bool keeps(Session& session, std::string_view chunk) {
  return !session.receive(chunk).has_value();
}

/// A RESPONSE, which only the daemon may send.
std::string clientResponse() {
  return encodeFrame(frameOf(
      9, ResponseBody{0, static_cast<std::uint8_t>(FrameType::kRequest), 0,
                      0, 0, 0, 0.0}));
}

TEST(Session, ByteAtATimeGivesTheSameBytesAsOneChunk) {
  const std::string bytes = encodeAll(burstFrames());
  Fixture whole;
  Fixture dribbled;
  ASSERT_TRUE(keeps(whole.session, bytes));
  for (const char c : bytes) {
    ASSERT_TRUE(keeps(dribbled.session, std::string_view(&c, 1)));
  }
  EXPECT_EQ(dribbled.session.unsent(), whole.session.unsent());
  EXPECT_TRUE(dribbled.stats == whole.stats)
      << formatDaemonStats(dribbled.stats) << "\nvs "
      << formatDaemonStats(whole.stats);
}

TEST(Session, AnswersEveryFrameInOrderWithItsSeq) {
  const std::vector<WireFrame> frames = burstFrames();
  Fixture f;
  ASSERT_TRUE(keeps(f.session, encodeAll(frames)));
  const std::vector<WireFrame> replies = decodeAll(f.session.unsent());
  ASSERT_EQ(replies.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(replies[i].seq, frames[i].seq);
    ASSERT_EQ(replies[i].type(), FrameType::kResponse);
    const auto& reply = std::get<ResponseBody>(replies[i].body);
    EXPECT_EQ(reply.op, static_cast<std::uint8_t>(frames[i].type()));
  }
  EXPECT_TRUE(f.stats ==
              (DaemonStats{.framesHandled = frames.size(),
                           .errorResponses = 2}))
      << formatDaemonStats(f.stats);

  // Sending drains unsent() from the front, in any split.
  const std::size_t total = f.session.unsent().size();
  f.session.markSent(5);
  EXPECT_EQ(f.session.unsent().size(), total - 5);
  f.session.markSent(total - 5);
  EXPECT_TRUE(f.session.unsent().empty());
}

TEST(Session, GarbageClosesWithTheDecodersMessage) {
  const std::string garbage =
      "not a PSC1 frame, not even close..............";
  Fixture f;
  // The frame ahead of the garbage is still answered.
  const std::optional<std::string> why = f.session.receive(
      encodeFrame(frameOf(1, PublishBody{1, 1, 64})) + garbage);
  ASSERT_TRUE(why.has_value());
  EXPECT_EQ(*why, decodeFrame(garbage).error);
  EXPECT_EQ(*why, "decodeFrame: bad magic");
  EXPECT_EQ(decodeAll(f.session.unsent()).size(), 1u);
  EXPECT_EQ(f.session.buffered(), 0u);
  EXPECT_TRUE(f.stats == (DaemonStats{.framesHandled = 1,
                                      .decodeErrors = 1}))
      << formatDaemonStats(f.stats);
}

TEST(Session, ClientResponseClosesAsAProtocolError) {
  Fixture f;
  const std::optional<std::string> why = f.session.receive(clientResponse());
  ASSERT_TRUE(why.has_value());
  EXPECT_EQ(*why, "client sent RESPONSE");
  EXPECT_TRUE(f.session.unsent().empty());
  EXPECT_TRUE(f.stats == DaemonStats{.protocolErrors = 1})
      << formatDaemonStats(f.stats);
}

TEST(Session, BuffersLessThanOneFrameAfterEveryReceive) {
  constexpr std::size_t kBound = kWireHeaderBytes + 28;
  const std::string bytes = encodeAll(burstFrames());
  Fixture f;
  // Chunks of 1, 2, ..., 50, 1, 2, ... bytes split frames everywhere.
  std::size_t at = 0;
  for (std::size_t size = 1; at < bytes.size(); size = size % 50 + 1) {
    ASSERT_TRUE(keeps(f.session, std::string_view(bytes).substr(at, size)));
    EXPECT_LT(f.session.buffered(), kBound);
    at += size;
  }
  EXPECT_EQ(f.session.buffered(), 0u);
  EXPECT_EQ(f.stats.framesHandled, burstFrames().size());

  // The longest frame there is, a RESPONSE, stops one byte short of
  // the bound; its last byte closes the session and empties it.
  const std::string response = clientResponse();
  const std::string_view cut = response;
  ASSERT_TRUE(keeps(f.session, cut.substr(0, cut.size() - 1)));
  EXPECT_EQ(f.session.buffered(), kBound - 1);
  EXPECT_FALSE(keeps(f.session, cut.substr(cut.size() - 1)));
  EXPECT_EQ(f.session.buffered(), 0u);
}

TEST(Session, ShedCountRestartsWithEachRead) {
  Fixture f(/*shedThreshold=*/2);
  ASSERT_TRUE(keeps(f.session, encodeFrame(frameOf(1, PublishBody{1, 1, 64}))));
  f.session.markSent(f.session.unsent().size());

  // In one read the publish and first REQUEST fill the threshold, so
  // the other two REQUESTs are shed; the next read starts afresh.
  f.session.beginRead();
  ASSERT_TRUE(keeps(f.session, encodeAll({frameOf(2, PublishBody{2, 1, 64}),
                                          frameOf(3, RequestBody{0, 1}),
                                          frameOf(4, RequestBody{0, 1}),
                                          frameOf(5, RequestBody{0, 2})})));
  f.session.beginRead();
  ASSERT_TRUE(keeps(f.session, encodeFrame(frameOf(6, RequestBody{1, 1}))));
  std::vector<bool> shed;
  for (const WireFrame& reply : decodeAll(f.session.unsent())) {
    shed.push_back(std::get<ResponseBody>(reply.body).overloaded());
  }
  EXPECT_EQ(shed, (std::vector<bool>{false, false, true, true, false}));
  EXPECT_EQ(f.stats.overloadShed, 2u);
}

}  // namespace
}  // namespace pscd::net
