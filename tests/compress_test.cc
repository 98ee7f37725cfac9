// LZ compression codec + CompressedTransport + RetryingTransport tests.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "net/compressed.h"
#include "net/retry.h"
#include "obiwan.h"
#include "test_objects.h"
#include "wire/compress.h"

namespace obiwan {
namespace {

Bytes RoundTrip(const Bytes& input) {
  Bytes compressed = wire::Compress(AsView(input));
  auto out = wire::Decompress(AsView(compressed));
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? *out : Bytes{};
}

TEST(Compress, EmptyAndTiny) {
  EXPECT_EQ(RoundTrip({}), Bytes{});
  EXPECT_EQ(RoundTrip({42}), Bytes{42});
  EXPECT_EQ(RoundTrip({1, 2, 3}), (Bytes{1, 2, 3}));
}

TEST(Compress, RepetitiveDataShrinksALot) {
  Bytes input(10'000, 0xAB);
  Bytes compressed = wire::Compress(AsView(input));
  EXPECT_LT(compressed.size(), input.size() / 50);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Compress, StructuredDataShrinks) {
  // A realistic replication batch: repeated class names and descriptors.
  wire::Writer w;
  for (int i = 0; i < 200; ++i) {
    w.String("obiwan.test.Node");
    w.Varint(static_cast<std::uint64_t>(i));
    w.String("site-s2:provider");
  }
  Bytes input = std::move(w).Take();
  Bytes compressed = wire::Compress(AsView(input));
  EXPECT_LT(compressed.size(), input.size() / 3);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Compress, IncompressibleDataGrowsOnlySlightly) {
  std::mt19937_64 rng(7);
  Bytes input(4096);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng());
  Bytes compressed = wire::Compress(AsView(input));
  EXPECT_LT(compressed.size(), input.size() + input.size() / 64 + 64);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(Compress, OverlappingMatchesRle) {
  // "abcabcabc..." exercises offset < match length (self-referencing copy).
  Bytes input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<std::uint8_t>('a' + i % 3));
  EXPECT_EQ(RoundTrip(input), input);
  Bytes compressed = wire::Compress(AsView(input));
  EXPECT_LT(compressed.size(), 50u);
}

class CompressPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressPropertyTest, RandomStructuredRoundTrips) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes input;
    // Mix runs, random bytes, and repeated chunks.
    int segments = 1 + static_cast<int>(rng() % 8);
    for (int s = 0; s < segments; ++s) {
      switch (rng() % 3) {
        case 0: {
          input.insert(input.end(), rng() % 300,
                       static_cast<std::uint8_t>(rng()));
          break;
        }
        case 1: {
          std::size_t n = rng() % 200;
          for (std::size_t i = 0; i < n; ++i) {
            input.push_back(static_cast<std::uint8_t>(rng()));
          }
          break;
        }
        case 2: {
          if (!input.empty()) {
            std::size_t start = rng() % input.size();
            std::size_t len = std::min<std::size_t>(rng() % 200,
                                                    input.size() - start);
            Bytes chunk(input.begin() + static_cast<std::ptrdiff_t>(start),
                        input.begin() + static_cast<std::ptrdiff_t>(start + len));
            input.insert(input.end(), chunk.begin(), chunk.end());
          }
          break;
        }
      }
    }
    ASSERT_EQ(RoundTrip(input), input) << "round " << round;
  }
}

TEST_P(CompressPropertyTest, HostileInputNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    Bytes garbage(rng() % 128);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    auto out = wire::Decompress(AsView(garbage), 1 << 20);
    if (out.ok()) {
      EXPECT_LE(out->size(), 1u << 20);
    }
  }
  // Bit-flipped valid streams must fail cleanly or produce bounded output.
  Bytes valid = wire::Compress(AsView(Bytes(500, 7)));
  for (int round = 0; round < 500; ++round) {
    Bytes corrupt = valid;
    corrupt[rng() % corrupt.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    (void)wire::Decompress(AsView(corrupt), 1 << 20);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressPropertyTest, ::testing::Values(1, 99));

TEST(Compress, BombGuard) {
  // Declared size above the cap is rejected before any allocation.
  wire::Writer w;
  w.Varint(1ull << 40);
  EXPECT_EQ(wire::Decompress(AsView(w.data()), 1 << 20).status().code(),
            StatusCode::kDataLoss);
}

// --- CompressedTransport ---------------------------------------------------------

TEST(CompressedTransport, EndToEndSitesOnCompressedSim) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::kPaperWireless);
  auto wrap = [&](const char* name) {
    return std::make_unique<net::CompressedTransport>(network.CreateEndpoint(name));
  };
  core::Site provider(1, wrap("p"), clock);
  core::Site demander(2, wrap("d"), clock);
  ASSERT_TRUE(provider.Start().ok());
  ASSERT_TRUE(demander.Start().ok());
  provider.HostRegistry();
  demander.UseRegistry("p");

  // Highly compressible payloads (zero-filled, as MakeChain produces
  // repeated bytes per node).
  auto head = test::MakeChain(20, 2048, "n");
  ASSERT_TRUE(provider.Bind("list", head).ok());
  auto remote = demander.Lookup<test::Node>("list");
  ASSERT_TRUE(remote.ok());

  const auto bytes_before = network.telemetry().reply_bytes->Value();
  auto ref = remote->Replicate(core::ReplicationMode::Cluster(20));
  ASSERT_TRUE(ref.ok());
  const auto batch_bytes =
      network.telemetry().reply_bytes->Value() - bytes_before;
  // 20 × 2 KB of repeated bytes compresses far below the raw ~41 KB.
  EXPECT_LT(batch_bytes, 5'000u);

  // Data integrity through compression.
  core::Ref<test::Node>* cursor = &*ref;
  int count = 0;
  while (!cursor->IsEmpty()) {
    EXPECT_EQ(cursor->get()->payload.size(), 2048u);
    cursor = &cursor->get()->next;
    ++count;
  }
  EXPECT_EQ(count, 20);

  // Put back through the compressed channel.
  (*ref)->SetLabel("compressed-edit");
  ASSERT_TRUE(demander.PutCluster(*ref).ok());
  EXPECT_EQ(head->label, "compressed-edit");
}

// --- RetryingTransport -------------------------------------------------------------

TEST(RetryingTransport, RecoversFromDrops) {
  VirtualClock clock;
  // 30% drop per direction: a single round trip succeeds only ~half the
  // time, ten tries virtually always.
  net::SimNetwork network(clock,
                          net::LinkParams{.drop_probability = 0.3}, /*seed=*/42);
  auto reliable = std::make_unique<net::RetryingTransport>(
      network.CreateEndpoint("client"),
      net::RetryPolicy{.max_attempts = 10}, clock);
  auto* reliable_raw = reliable.get();
  auto server_endpoint = network.CreateEndpoint("server");

  class Echo : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView b) override {
      return Bytes(b.begin(), b.end());
    }
  } echo;
  ASSERT_TRUE(server_endpoint->Serve(&echo).ok());

  int successes = 0;
  for (int i = 0; i < 50; ++i) {
    if (reliable_raw->Request("server", Bytes{1, 2, 3}).ok()) ++successes;
  }
  // Per-try round-trip success ≈ 0.49; P(all 10 tries fail) ≈ 0.1%.
  EXPECT_GE(successes, 48);
  EXPECT_GT(reliable_raw->retries(), 0u);
}

TEST(RetryingTransport, BackoffIsChargedToTheClock) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{.drop_probability = 1.0});
  net::RetryingTransport transport(
      network.CreateEndpoint("client"),
      net::RetryPolicy{.max_attempts = 3, .initial_backoff = 10 * kMilli},
      clock);
  auto server_endpoint = network.CreateEndpoint("server");
  class Echo : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView b) override {
      return Bytes(b.begin(), b.end());
    }
  } echo;
  ASSERT_TRUE(server_endpoint->Serve(&echo).ok());

  auto reply = transport.Request("server", Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(transport.retries(), 3u);
  // Two backoffs between three attempts: 10 + 20 ms.
  EXPECT_GE(clock.Now(), 30 * kMilli);
}

TEST(RetryingTransport, DoesNotRetryDefinitiveErrors) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{});
  net::RetryingTransport transport(network.CreateEndpoint("client"),
                                   net::RetryPolicy{}, clock);
  // No server at all: NotFound, no retries.
  auto reply = transport.Request("ghost", Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(transport.retries(), 0u);

  // Disconnected is definitive by default...
  auto server_endpoint = network.CreateEndpoint("server");
  network.SetEndpointUp("server", false);
  EXPECT_EQ(transport.Request("server", Bytes{1}).status().code(),
            StatusCode::kDisconnected);
  EXPECT_EQ(transport.retries(), 0u);
}

TEST(RetryingTransport, OptInDisconnectedRetry) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{});
  net::RetryingTransport transport(
      network.CreateEndpoint("client"),
      net::RetryPolicy{.max_attempts = 4, .retry_disconnected = true}, clock);
  auto server_endpoint = network.CreateEndpoint("server");
  network.SetEndpointUp("server", false);
  EXPECT_EQ(transport.Request("server", Bytes{1}).status().code(),
            StatusCode::kDisconnected);
  EXPECT_EQ(transport.retries(), 4u);
}

TEST(RetryingTransport, BackoffIsClampedAtMaxBackoff) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{.drop_probability = 1.0});
  // Aggressive growth that would reach minutes in a few attempts without the
  // clamp: 1 ms × 100^n. With max_backoff = 5 ms the sleeps are
  // 1 + 5 × 6 = 31 ms across 8 attempts.
  net::RetryingTransport transport(
      network.CreateEndpoint("client"),
      net::RetryPolicy{.max_attempts = 8,
                       .initial_backoff = kMilli,
                       .backoff_multiplier = 100.0,
                       .max_backoff = 5 * kMilli},
      clock);
  auto server_endpoint = network.CreateEndpoint("server");
  class Echo : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView b) override {
      return Bytes(b.begin(), b.end());
    }
  } echo;
  ASSERT_TRUE(server_endpoint->Serve(&echo).ok());

  EXPECT_EQ(transport.Request("server", Bytes{1}).status().code(),
            StatusCode::kTimeout);
  EXPECT_EQ(clock.Now(), 31 * kMilli);
}

TEST(RetryingTransport, HugeMultiplierDoesNotOverflow) {
  VirtualClock clock;
  net::SimNetwork network(clock, net::LinkParams{.drop_probability = 1.0});
  net::RetryingTransport transport(
      network.CreateEndpoint("client"),
      net::RetryPolicy{.max_attempts = 50,
                       .initial_backoff = kSecond,
                       .backoff_multiplier = 1e18,  // overflows Nanos in one step
                       .max_backoff = 2 * kMilli},
      clock);
  auto server_endpoint = network.CreateEndpoint("server");
  class Echo : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView b) override {
      return Bytes(b.begin(), b.end());
    }
  } echo;
  ASSERT_TRUE(server_endpoint->Serve(&echo).ok());

  EXPECT_EQ(transport.Request("server", Bytes{1}).status().code(),
            StatusCode::kTimeout);
  // initial_backoff itself is clamped too: 49 sleeps of 2 ms each, and the
  // virtual clock never sees a negative or overflowed sleep.
  EXPECT_EQ(clock.Now(), 49 * 2 * kMilli);
}

// Concurrent clients hammer one RetryingTransport whose every attempt fails:
// the retry counter must stay exact (it was a plain uint64 data race before).
// Runs under TSan in the thread-sanitizer CI flavour.
TEST(RetryingTransport, ConcurrentRetriesCountExactly) {
  net::LoopbackNetwork network;
  auto client_endpoint = network.CreateEndpoint("client");
  auto server_endpoint = network.CreateEndpoint("server");
  class AlwaysTimeout : public net::MessageHandler {
   public:
    Result<Bytes> HandleRequest(const net::Address&, BytesView) override {
      calls.fetch_add(1, std::memory_order_relaxed);
      return TimeoutError("induced");
    }
    std::atomic<std::uint64_t> calls{0};
  } handler;
  ASSERT_TRUE(server_endpoint->Serve(&handler).ok());

  // Real clock with nanosecond backoffs: the test exercises contention, not
  // waiting.
  net::RetryingTransport transport(
      std::move(client_endpoint),
      net::RetryPolicy{.max_attempts = 3,
                       .initial_backoff = 1000,
                       .max_backoff = 1000});

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        EXPECT_EQ(transport.Request("server", Bytes{1}).status().code(),
                  StatusCode::kTimeout);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t requests = kThreads * kRequestsPerThread;
  EXPECT_EQ(transport.retries(), requests * 3);
  EXPECT_EQ(handler.calls.load(), requests * 3);
}

}  // namespace
}  // namespace obiwan
