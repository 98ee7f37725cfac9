// Transport tests: loopback delivery, simulated network cost model,
// disconnection injection, reply framing.
#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/loopback.h"
#include "net/sim.h"

namespace obiwan::net {
namespace {

class EchoHandler : public MessageHandler {
 public:
  Result<Bytes> HandleRequest(const Address& from, BytesView request) override {
    ++calls;
    last_from = from;
    if (fail_with) return *fail_with;
    Bytes reply(request.begin(), request.end());
    reply.insert(reply.end(), suffix.begin(), suffix.end());
    return reply;
  }

  int calls = 0;
  Address last_from;
  Bytes suffix;
  std::optional<Status> fail_with;
};

TEST(Loopback, RequestReply) {
  LoopbackNetwork network;
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  echo.suffix = {9};
  ASSERT_TRUE(b->Serve(&echo).ok());

  auto reply = a->Request("b", Bytes{1, 2});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (Bytes{1, 2, 9}));
  EXPECT_EQ(echo.last_from, "a");
  EXPECT_EQ(network.telemetry().requests->Value(), 1u);
  EXPECT_EQ(network.telemetry().request_bytes->Value(), 2u);
  EXPECT_EQ(network.telemetry().reply_bytes->Value(), 3u);
}

TEST(Loopback, UnknownDestination) {
  LoopbackNetwork network;
  auto a = network.CreateEndpoint("a");
  auto reply = a->Request("nowhere", Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(network.telemetry().failures->Value(), 1u);
}

TEST(Loopback, NotServingYet) {
  LoopbackNetwork network;
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EXPECT_EQ(a->Request("b", Bytes{1}).status().code(), StatusCode::kNotFound);
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());
  EXPECT_TRUE(a->Request("b", Bytes{1}).ok());
  b->StopServing();
  EXPECT_FALSE(a->Request("b", Bytes{1}).ok());
}

TEST(Loopback, DuplicateAddressRejected) {
  LoopbackNetwork network;
  auto a = network.CreateEndpoint("a");
  EXPECT_EQ(network.CreateEndpoint("a"), nullptr);
}

TEST(Loopback, EndpointUnregistersOnDestruction) {
  LoopbackNetwork network;
  { auto a = network.CreateEndpoint("a"); }
  EXPECT_NE(network.CreateEndpoint("a"), nullptr);  // address is free again
}

TEST(Loopback, HandlerErrorPropagates) {
  LoopbackNetwork network;
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  echo.fail_with = NotFoundError("no such object");
  ASSERT_TRUE(b->Serve(&echo).ok());
  auto reply = a->Request("b", Bytes{});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
}

// --- simulated network --------------------------------------------------------

TEST(LinkParams, OneWayCost) {
  LinkParams link{.processing_overhead = 1 * kMilli,
                  .latency = 2 * kMilli,
                  .bandwidth_bytes_per_sec = 1000.0};
  EXPECT_EQ(link.OneWayCost(0), 3 * kMilli);
  // 500 bytes at 1000 B/s = 0.5 s.
  EXPECT_EQ(link.OneWayCost(500), 3 * kMilli + kSecond / 2);
}

TEST(Sim, ChargesVirtualTime) {
  VirtualClock clock;
  LinkParams link{.processing_overhead = 1 * kMilli, .latency = 0};
  SimNetwork network(clock, link);
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());

  ASSERT_TRUE(a->Request("b", Bytes{}).ok());
  EXPECT_EQ(clock.Now(), 2 * kMilli);  // request + reply

  ASSERT_TRUE(a->Request("b", Bytes{}).ok());
  EXPECT_EQ(clock.Now(), 4 * kMilli);
}

TEST(Sim, PaperLanCalibration) {
  // The headline constant: an empty round trip on the paper's LAN = 2.8 ms.
  VirtualClock clock;
  SimNetwork network(clock, kPaperLan);
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());
  ASSERT_TRUE(a->Request("b", Bytes{}).ok());
  EXPECT_EQ(clock.Now(), 2'800 * kMicro);
}

TEST(Sim, BandwidthScalesWithSize) {
  VirtualClock clock;
  LinkParams link{.bandwidth_bytes_per_sec = 1.0e6};
  SimNetwork network(clock, link);
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());

  Bytes megabyte(1'000'000, 0);
  ASSERT_TRUE(a->Request("b", megabyte).ok());
  // 1 MB request + 1 MB echoed reply at 1 MB/s ≈ 2 s.
  EXPECT_GE(clock.Now(), 2 * kSecond);
  EXPECT_LT(clock.Now(), 2 * kSecond + 10 * kMilli);
}

TEST(Sim, EndpointDisconnection) {
  VirtualClock clock;
  SimNetwork network(clock, LinkParams{});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());

  network.SetEndpointUp("b", false);
  EXPECT_EQ(a->Request("b", Bytes{}).status().code(), StatusCode::kDisconnected);
  EXPECT_EQ(echo.calls, 0);

  network.SetEndpointUp("b", true);
  EXPECT_TRUE(a->Request("b", Bytes{}).ok());
}

TEST(Sim, PerLinkDisconnection) {
  VirtualClock clock;
  SimNetwork network(clock, LinkParams{});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  auto c = network.CreateEndpoint("c");
  EchoHandler echo_b, echo_c;
  ASSERT_TRUE(b->Serve(&echo_b).ok());
  ASSERT_TRUE(c->Serve(&echo_c).ok());

  network.SetLinkUp("a", "b", false);
  EXPECT_EQ(a->Request("b", Bytes{}).status().code(), StatusCode::kDisconnected);
  EXPECT_TRUE(a->Request("c", Bytes{}).ok());  // other links unaffected
  // Link state is symmetric.
  EXPECT_EQ(b->Request("a", Bytes{}).status().code(), StatusCode::kDisconnected);
}

TEST(Sim, PerLinkParamsOverride) {
  VirtualClock clock;
  SimNetwork network(clock, LinkParams{});  // default: free
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());

  network.SetLinkParams("a", "b", LinkParams{.latency = 5 * kMilli});
  ASSERT_TRUE(a->Request("b", Bytes{}).ok());
  EXPECT_EQ(clock.Now(), 10 * kMilli);
}

TEST(Sim, DropProbabilityIsTimeout) {
  VirtualClock clock;
  SimNetwork network(clock, LinkParams{.drop_probability = 1.0});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());
  EXPECT_EQ(a->Request("b", Bytes{}).status().code(), StatusCode::kTimeout);
}

TEST(Sim, JitterIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    VirtualClock clock;
    SimNetwork network(clock, LinkParams{.jitter = 10 * kMilli}, seed);
    auto a = network.CreateEndpoint("a");
    auto b = network.CreateEndpoint("b");
    EchoHandler echo;
    (void)b->Serve(&echo);
    (void)a->Request("b", Bytes{});
    return clock.Now();
  };
  EXPECT_EQ(run(5), run(5));
}

// --- deadlines on the simulated network -------------------------------------------

TEST(SimDeadline, RequestFlightExceedingDeadlineTimesOut) {
  VirtualClock clock;
  // 10 ms one-way: a 5 ms deadline expires mid-request-flight.
  SimNetwork network(clock, LinkParams{.latency = 10 * kMilli});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());

  auto reply = a->Request("b", Bytes{1}, CallOptions{5 * kMilli});
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  // The caller waits exactly until the deadline, not until the message would
  // have landed.
  EXPECT_EQ(clock.Now(), 5 * kMilli);
  EXPECT_EQ(echo.calls, 0);
  EXPECT_GE(network.telemetry().timeouts->Value(), 1u);
}

TEST(SimDeadline, ReplyFlightExceedingDeadlineTimesOut) {
  VirtualClock clock;
  // Request (1 byte) is nearly free; the 1000-byte reply at 1000 B/s takes a
  // second, far past the 100 ms deadline. The handler runs; the caller still
  // gives up at the deadline.
  SimNetwork network(clock, LinkParams{.bandwidth_bytes_per_sec = 1000.0});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  echo.suffix = Bytes(1000, 0);
  ASSERT_TRUE(b->Serve(&echo).ok());

  auto reply = a->Request("b", Bytes{1}, CallOptions{100 * kMilli});
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(clock.Now(), 100 * kMilli);
  EXPECT_EQ(echo.calls, 1);
}

TEST(SimDeadline, DefaultDeadlineAppliesAndNoDeadlineDisables) {
  VirtualClock clock;
  SimNetwork network(clock, LinkParams{.latency = 10 * kMilli});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());

  a->SetDefaultDeadline(5 * kMilli);
  EXPECT_EQ(a->Request("b", Bytes{1}).status().code(), StatusCode::kTimeout);

  // An explicit unbounded deadline overrides the transport default.
  EXPECT_TRUE(a->Request("b", Bytes{1}, CallOptions{kNoDeadline}).ok());

  a->SetDefaultDeadline(kNoDeadline);
  EXPECT_TRUE(a->Request("b", Bytes{1}).ok());
}

TEST(SimDeadline, GenerousDeadlineDoesNotInterfere) {
  VirtualClock clock;
  SimNetwork network(clock, LinkParams{.latency = kMilli});
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());
  EXPECT_TRUE(a->Request("b", Bytes{1}, CallOptions{kSecond}).ok());
  EXPECT_EQ(clock.Now(), 2 * kMilli);  // full cost charged, no early cut
}

TEST(Loopback, IgnoresDeadlines) {
  LoopbackNetwork network;
  auto a = network.CreateEndpoint("a");
  auto b = network.CreateEndpoint("b");
  EchoHandler echo;
  ASSERT_TRUE(b->Serve(&echo).ok());
  // Zero-latency delivery beats any deadline, even a 1 ns one.
  EXPECT_TRUE(a->Request("b", Bytes{1}, CallOptions{1}).ok());
}

// --- reply framing --------------------------------------------------------------

TEST(Frame, OkRoundTrip) {
  Bytes payload{1, 2, 3};
  Bytes frame = EncodeReplyFrame(Result<Bytes>(payload));
  auto decoded = DecodeReplyFrame(AsView(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(Frame, ErrorRoundTrip) {
  Bytes frame = EncodeReplyFrame(Result<Bytes>(ConflictError("boom")));
  auto decoded = DecodeReplyFrame(AsView(frame));
  EXPECT_EQ(decoded.status().code(), StatusCode::kConflict);
  EXPECT_EQ(decoded.status().message(), "boom");
}

TEST(Frame, EmptyFrameIsDataLoss) {
  EXPECT_EQ(DecodeReplyFrame({}).status().code(), StatusCode::kDataLoss);
}

TEST(Frame, ErrorFrameWithOkCodeRejected) {
  wire::Writer w;
  w.U8(0);
  w.Varint(0);  // claims "OK" inside an error frame
  w.String("");
  EXPECT_EQ(DecodeReplyFrame(AsView(w.data())).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace obiwan::net
