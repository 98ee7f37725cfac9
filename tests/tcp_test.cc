// Real-socket transport tests, including full OBIWAN sites over TCP:
// deadlines (no request may hang forever), connection pooling, stale-pool
// recovery, retry-over-TCP, the frame layout and cap, and server thread
// lifecycle. Tests that pin the wire or the I/O paths talk to a raw socket
// peer, so both ends are not the same implementation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/frame.h"
#include "net/retry.h"
#include "net/tcp.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

// Connect a raw client socket to 127.0.0.1:`port` (or return -1).
int RawConnect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Raw listening socket on an ephemeral port; never accepts unless asked.
struct RawListener {
  int fd = -1;
  std::uint16_t port = 0;

  RawListener() {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(fd, 8) == 0) {
      socklen_t len = sizeof(addr);
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
      port = ntohs(addr.sin_port);
    }
  }
  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
  std::string address() const { return "127.0.0.1:" + std::to_string(port); }
};

// Read exactly `size` bytes from a raw socket (empty on close or error).
Bytes RawRead(int fd, std::size_t size) {
  Bytes out(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, out.data() + got, size - got, 0);
    if (n <= 0) return {};
    got += static_cast<std::size_t>(n);
  }
  return out;
}

// Read one `u32 LE length | payload` frame from a raw socket, header included.
Bytes RawReadFrame(int fd) {
  Bytes frame = RawRead(fd, 4);
  if (frame.empty()) return {};
  const std::size_t size = frame[0] | frame[1] << 8 | frame[2] << 16 |
                           static_cast<std::size_t>(frame[3]) << 24;
  Bytes payload = RawRead(fd, size);
  if (payload.size() != size) return {};
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

// `u32 LE length | body`.
Bytes Framed(const Bytes& body) {
  Bytes frame(4 + body.size());
  const auto size = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) frame[i] = static_cast<std::uint8_t>(size >> (8 * i));
  std::copy(body.begin(), body.end(), frame.begin() + 4);
  return frame;
}

bool RawSend(int fd, const Bytes& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

class EchoHandler : public net::MessageHandler {
 public:
  Result<Bytes> HandleRequest(const net::Address&, BytesView request) override {
    calls.fetch_add(1);
    if (fail) return InvalidArgumentError("rejected");
    return Bytes(request.begin(), request.end());
  }
  bool fail = false;
  std::atomic<int> calls{0};
};

TEST(Tcp, RequestReply) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok()) << server.status();
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());

  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  Bytes payload{1, 2, 3, 4, 5};
  auto reply = (*client)->Request((*server)->LocalAddress(), payload);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, payload);
}

TEST(Tcp, LargePayload) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  Bytes big(2 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto reply = (*client)->Request((*server)->LocalAddress(), big);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, big);
}

TEST(Tcp, HandlerErrorCrossesTheWire) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  echo.fail = true;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  auto reply = (*client)->Request((*server)->LocalAddress(), Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reply.status().message(), "rejected");
}

TEST(Tcp, ConnectionRefusedIsDisconnected) {
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  // Nothing listens on the client's own port-0 sibling; pick an unlikely port.
  auto reply = (*client)->Request("127.0.0.1:1", Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kDisconnected);
}

TEST(Tcp, BadAddressRejected) {
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->Request("no-port", Bytes{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->Request("host:99999", Bytes{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->Request("not.an.ip:80", Bytes{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Tcp, StopServingUnblocksAndRefuses) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  (*server)->StopServing();
  // Serving again works (fresh lifecycle is not required, but stop is final
  // for the accept loop; a new transport would be created in practice).
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->Request((*server)->LocalAddress(), Bytes{1});
  EXPECT_FALSE(reply.ok());
}

// The frame bytes, pinned against a raw peer: the request is exactly
// `u32 LE length | payload`, an ok reply is `[len][0x01][payload]`, an error
// reply is `[len][0x00][varint code][string msg]`, and a connection that
// delivered bytes past its reply frame is not used again.
TEST(Tcp, FramesMatchTheDocumentedLayout) {
  RawListener listener;
  ASSERT_GT(listener.port, 0);
  Bytes first_request;
  std::thread peer([&] {
    int conn = ::accept(listener.fd, nullptr, nullptr);
    if (conn < 0) return;
    first_request = RawReadFrame(conn);
    RawSend(conn, Framed({0x01, 9, 8, 7}));
    RawReadFrame(conn);
    RawSend(conn, Framed({0x00, 0x08, 0x04, 'b', 'o', 'o', 'm'}));  // kConflict
    RawReadFrame(conn);
    Bytes ok_then_stray = Framed({0x01, 5});
    ok_then_stray.insert(ok_then_stray.end(), {0xEE, 0xEE});
    RawSend(conn, ok_then_stray);
    int fresh = ::accept(listener.fd, nullptr, nullptr);
    if (fresh >= 0) {
      RawReadFrame(fresh);
      RawSend(fresh, Framed({0x01, 6}));
      ::close(fresh);
    }
    ::close(conn);
  });

  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  const net::CallOptions options{2 * kSecond};
  auto ok = (*client)->Request(listener.address(), Bytes{0xAB, 0xCD, 0xEF}, options);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, (Bytes{9, 8, 7}));

  auto error = (*client)->Request(listener.address(), Bytes{1}, options);
  EXPECT_EQ(error.status().code(), StatusCode::kConflict) << error.status();
  EXPECT_EQ(error.status().message(), "boom");

  auto stray = (*client)->Request(listener.address(), Bytes{2}, options);
  ASSERT_TRUE(stray.ok()) << stray.status();
  EXPECT_EQ(*stray, Bytes{5});
  EXPECT_EQ((*client)->telemetry().connects->Value(), 1u);

  auto after = (*client)->Request(listener.address(), Bytes{3}, options);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, Bytes{6});
  EXPECT_EQ((*client)->telemetry().connects->Value(), 2u);
  peer.join();

  EXPECT_EQ(first_request, (Bytes{3, 0, 0, 0, 0xAB, 0xCD, 0xEF}));
}

// Both ends enforce the frame cap. A request over it fails before it costs
// a connection or reaches the handler; it is never sent, so it is never
// sent twice by the stale-connection rule either.
TEST(Tcp, OversizedRequestIsRefusedBeforeSending) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  const net::Address address = (*server)->LocalAddress();
  ASSERT_TRUE((*client)->Request(address, Bytes{1}).ok());

  auto reply = (*client)->Request(address, Bytes(net::kMaxFrameBytes + 1));
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << reply.status();
  EXPECT_EQ((*client)->telemetry().connects->Value(), 1u);
  EXPECT_EQ(echo.calls.load(), 1);
  EXPECT_EQ((*client)->idle_pooled_connections(), 1u);
}

// A reply over the cap comes back as an error frame: the caller learns why,
// and the connection stays pooled and in step for the next request.
TEST(Tcp, OversizedReplyBecomesAnErrorFrame) {
  class BloatHandler : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView request) override {
      // An ok reply frame is one status byte plus the payload.
      if (request[0] == 1) return Bytes(net::kMaxFrameBytes);
      return Bytes(request.begin(), request.end());
    }
  };
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  BloatHandler bloat;
  ASSERT_TRUE((*server)->Serve(&bloat).ok());
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  const net::Address address = (*server)->LocalAddress();

  auto reply = (*client)->Request(address, Bytes{1}, net::CallOptions{10 * kSecond});
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << reply.status();
  EXPECT_EQ((*client)->idle_pooled_connections(), 1u);

  auto next = (*client)->Request(address, Bytes{2});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, Bytes{2});
  EXPECT_EQ((*client)->telemetry().connects->Value(), 1u);
  EXPECT_EQ((*client)->telemetry().pool_hits->Value(), 1u);
}

// The whole middleware across real sockets: registry, RMI, incremental
// replication, object faults, put — identical application code to loopback.
TEST(Tcp, FullSitesOverTcp) {
  auto provider_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(provider_transport.ok());
  auto demander_transport = net::TcpTransport::Create(0);
  ASSERT_TRUE(demander_transport.ok());

  core::Site provider(2, std::move(*provider_transport));
  core::Site demander(1, std::move(*demander_transport));
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry(provider.address());

  auto head = test::MakeChain(5, 64, "t");
  ASSERT_TRUE(provider.Bind("list", head).ok());

  auto remote = demander.Lookup<test::Node>("list");
  ASSERT_TRUE(remote.ok()) << remote.status();

  // RMI over TCP.
  auto v = remote->Invoke(&test::Node::Value);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(*v, 0);

  // Incremental replication with faults over TCP.
  auto ref = remote->Replicate(core::ReplicationMode::Incremental(2));
  ASSERT_TRUE(ref.ok()) << ref.status();
  core::Ref<test::Node>* cursor = &*ref;
  int count = 0;
  while (!cursor->IsEmpty()) {
    (*cursor)->Touch();
    cursor = &cursor->get()->next;
    ++count;
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(demander.replica_count(), 5u);

  // Put over TCP.
  (*ref)->SetLabel("tcp-edit");
  ASSERT_TRUE(demander.Put(*ref).ok());
  EXPECT_EQ(head->label, "tcp-edit");

  demander.Stop();
  provider.Stop();
}

// --- deadlines -----------------------------------------------------------------

TEST(TcpDeadline, DefaultDeadlineIsFinite) {
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->default_deadline(), net::TcpTransport::kDefaultDeadline);
}

// The hang-forever bug: a peer whose kernel completes the handshake (listen
// backlog) but that never reads or replies used to block the caller
// indefinitely in recv. With a deadline the call must return kTimeout.
TEST(TcpDeadline, DeadPeerTimesOutBeforeDeadline) {
  RawListener dead;  // listening, never accepting, never replying
  ASSERT_GT(dead.port, 0);
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  const auto start = std::chrono::steady_clock::now();
  auto reply = (*client)->Request(dead.address(), Bytes{1, 2, 3},
                                  net::CallOptions{200 * kMilli});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout) << reply.status();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_GE((*client)->telemetry().timeouts->Value(), 1u);
}

TEST(TcpDeadline, SetDefaultDeadlineApplies) {
  RawListener dead;
  ASSERT_GT(dead.port, 0);
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  (*client)->SetDefaultDeadline(100 * kMilli);
  auto reply = (*client)->Request(dead.address(), Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
}

TEST(TcpDeadline, MidFramePeerCloseIsDataLoss) {
  RawListener listener;
  ASSERT_GT(listener.port, 0);
  // Server: accept, consume the request frame, write half a reply header,
  // close. The client must fail fast with kDataLoss, not hang.
  std::thread server([&] {
    int conn = ::accept(listener.fd, nullptr, nullptr);
    if (conn < 0) return;
    std::uint8_t buf[64];
    (void)::recv(conn, buf, sizeof(buf), 0);
    const std::uint8_t half_header[2] = {42, 0};
    (void)::send(conn, half_header, sizeof(half_header), MSG_NOSIGNAL);
    ::close(conn);
  });
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  auto reply = (*client)->Request(listener.address(), Bytes{7},
                                  net::CallOptions{2 * kSecond});
  EXPECT_EQ(reply.status().code(), StatusCode::kDataLoss) << reply.status();
  server.join();
}

// The deadline bounds the whole exchange, not each recv: a peer that drips a
// valid reply one byte at a time, each byte well inside the deadline, still
// times the call out on schedule.
TEST(TcpDeadline, SlowDripReplyTimesOutWithinTheDeadline) {
  RawListener listener;
  ASSERT_GT(listener.port, 0);
  std::thread peer([&] {
    int conn = ::accept(listener.fd, nullptr, nullptr);
    if (conn < 0) return;
    RawReadFrame(conn);
    for (std::uint8_t byte : Framed({0x01, 7})) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      if (::send(conn, &byte, 1, MSG_NOSIGNAL) != 1) break;
    }
    ::close(conn);
  });
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  const auto start = std::chrono::steady_clock::now();
  auto reply = (*client)->Request(listener.address(), Bytes{7},
                                  net::CallOptions{200 * kMilli});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout) << reply.status();
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
  peer.join();
}

// A peer that accepts and never reads fills the socket buffers: the send
// itself must give up at the deadline.
TEST(TcpDeadline, StalledReaderTimesOutTheSend) {
  RawListener listener;
  ASSERT_GT(listener.port, 0);
  std::atomic<bool> done{false};
  std::thread peer([&] {
    int conn = ::accept(listener.fd, nullptr, nullptr);
    while (!done.load()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (conn >= 0) ::close(conn);
  });
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  const auto start = std::chrono::steady_clock::now();
  auto reply = (*client)->Request(listener.address(), Bytes(32 << 20),
                                  net::CallOptions{300 * kMilli});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done.store(true);
  peer.join();
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout) << reply.status();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

// --- connection pooling ----------------------------------------------------------

TEST(TcpPool, BurstReusesOneConnection) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());

  for (int i = 0; i < 10; ++i) {
    auto reply = (*client)->Request((*server)->LocalAddress(),
                                    Bytes{static_cast<std::uint8_t>(i)});
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  EXPECT_EQ((*client)->telemetry().connects->Value(), 1u);
  EXPECT_EQ((*client)->telemetry().pool_hits->Value(), 9u);
  EXPECT_EQ((*client)->idle_pooled_connections(), 1u);
}

TEST(TcpPool, CapacityZeroDisablesPooling) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  (*client)->SetPoolCapacity(0);

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*client)->Request((*server)->LocalAddress(), Bytes{1}).ok());
  }
  EXPECT_EQ((*client)->telemetry().connects->Value(), 5u);
  EXPECT_EQ((*client)->telemetry().pool_hits->Value(), 0u);
  EXPECT_EQ((*client)->idle_pooled_connections(), 0u);
}

TEST(TcpPool, StaleConnectionRecovers) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::stoi((*server)->LocalAddress().substr(std::string("127.0.0.1:").size())));
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());

  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  const net::Address address = (*server)->LocalAddress();
  ASSERT_TRUE((*client)->Request(address, Bytes{1}).ok());
  EXPECT_EQ((*client)->idle_pooled_connections(), 1u);

  // Kill the server (FINs the pooled connection) and restart on the same
  // port: the next request must detect the stale socket and reconnect.
  server->reset();
  auto reborn = net::TcpTransport::Create(port);
  ASSERT_TRUE(reborn.ok()) << reborn.status();
  ASSERT_TRUE((*reborn)->Serve(&echo).ok());

  auto reply = (*client)->Request(address, Bytes{2},
                                  net::CallOptions{2 * kSecond});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ((*client)->telemetry().connects->Value(), 2u);
}

// --- retry over real sockets ------------------------------------------------------

// A handler whose first call stalls longer than the client deadline: attempt
// one times out, the retry decorator re-sends, attempt two succeeds. This is
// the end-to-end proof that kTimeout (not a hang) makes retries meaningful
// on real sockets.
TEST(TcpRetry, RetryRecoversAfterTimeout) {
  class FlakyHandler : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView request) override {
      if (calls.fetch_add(1) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      }
      return Bytes(request.begin(), request.end());
    }
    std::atomic<int> calls{0};
  };

  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  FlakyHandler flaky;
  ASSERT_TRUE((*server)->Serve(&flaky).ok());

  auto client = net::TcpTransport::Create(0);
  ASSERT_TRUE(client.ok());
  const net::Address address = (*server)->LocalAddress();
  net::RetryingTransport reliable(
      std::move(*client),
      net::RetryPolicy{.max_attempts = 3, .initial_backoff = kMilli});
  reliable.SetDefaultDeadline(150 * kMilli);

  auto reply = reliable.Request(address, Bytes{5});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, Bytes{5});
  EXPECT_EQ(reliable.retries(), 1u);
  EXPECT_EQ(flaky.calls.load(), 2);
}

// --- server thread lifecycle ------------------------------------------------------

TEST(TcpServer, SoakReapsConnectionThreads) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::stoi((*server)->LocalAddress().substr(std::string("127.0.0.1:").size())));

  for (int i = 0; i < 1000; ++i) {
    int fd = RawConnect(port);
    ASSERT_GE(fd, 0) << "iteration " << i;
    ::close(fd);
  }
  // Every handler thread sees the FIN and retires; none may linger.
  for (int spin = 0; spin < 500 && (*server)->active_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*server)->active_connections(), 0u);
  (*server)->StopServing();
}

TEST(TcpServer, MaxConnectionsBoundsHandlerThreads) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  (*server)->SetMaxConnections(2);
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::stoi((*server)->LocalAddress().substr(std::string("127.0.0.1:").size())));

  int fds[4];
  for (int& fd : fds) {
    fd = RawConnect(port);
    ASSERT_GE(fd, 0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE((*server)->active_connections(), 2u);
  for (int fd : fds) ::close(fd);
  for (int spin = 0; spin < 500 && (*server)->active_connections() > 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ((*server)->active_connections(), 0u);
}

// A transient accept failure must not end the accept loop. The one handler
// slot is taken by a pooled connection, so the loop waits for a slot, not
// in accept(). With the descriptor limit at the lowest free descriptor, a
// second slot wakes it into an accept that fails with EMFILE (and no thread
// starts while descriptors are exhausted: sanitizer runtimes need one for
// their checks). Once the limit is back, a new connection must be served.
TEST(TcpServer, AcceptSurvivesDescriptorExhaustion) {
  auto server = net::TcpTransport::Create(0);
  ASSERT_TRUE(server.ok());
  (*server)->SetMaxConnections(1);
  EchoHandler echo;
  ASSERT_TRUE((*server)->Serve(&echo).ok());
  const net::Address address = (*server)->LocalAddress();
  auto pooled = net::TcpTransport::Create(0);
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE((*pooled)->Request(address, Bytes{1}).ok());
  auto fresh = net::TcpTransport::Create(0);
  ASSERT_TRUE(fresh.ok());

  const int lowest_free = ::fcntl(0, F_DUPFD, 0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit exhausted = saved;
  exhausted.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &exhausted), 0);
  (*server)->SetMaxConnections(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  auto reply = (*fresh)->Request(address, Bytes{4}, net::CallOptions{kSecond});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, Bytes{4});
  EXPECT_EQ((*fresh)->telemetry().connects->Value(), 1u);
}

}  // namespace
}  // namespace obiwan
