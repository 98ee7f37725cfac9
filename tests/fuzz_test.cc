// Robustness fuzzing (deterministic): hostile bytes into every externally
// reachable decoder — the site's request handler, the registry, the snapshot
// loader, and the message codecs. The invariant everywhere: garbage in,
// kDataLoss (or another clean error) out; never a crash, never an OK that
// corrupts state.
#include <gtest/gtest.h>

#include <random>

#include "net/frame.h"
#include "obiwan.h"
#include "test_objects.h"

namespace obiwan {
namespace {

Bytes RandomBytes(std::mt19937_64& rng, std::size_t max_len) {
  std::size_t n = rng() % (max_len + 1);
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  return b;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, SiteHandlerSurvivesRandomRequests) {
  net::LoopbackNetwork network;
  core::Site site(1, network.CreateEndpoint("victim"));
  core::Site attacker(2, network.CreateEndpoint("attacker"));
  ASSERT_TRUE(site.Start().ok());
  ASSERT_TRUE(attacker.Start().ok());
  site.HostRegistry();
  site.UseRegistry("victim");
  attacker.UseRegistry("victim");

  // Give the victim some state so decoders have tables to hit.
  auto head = test::MakeChain(3, 16, "n");
  ASSERT_TRUE(site.Bind("list", head).ok());

  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    Bytes request = RandomBytes(rng, 64);
    // Half the time, force a valid message kind so the body decoders get
    // exercised rather than the envelope rejecting everything.
    if (!request.empty() && (rng() & 1) != 0u) {
      request[0] = static_cast<std::uint8_t>(1 + rng() % rmi::kMaxMessageKind);
    }
    (void)attacker.transport().Request("victim", AsView(request));
  }

  // The site is still fully functional afterwards.
  auto remote = attacker.Lookup<test::Node>("list");
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto ref = remote->Replicate(core::ReplicationMode::Closure());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref)->next->next->Label(), "n2");
  EXPECT_EQ(head->label, "n0");  // masters unscathed
}

TEST_P(FuzzTest, SnapshotLoaderSurvivesRandomBytes) {
  net::LoopbackNetwork network;
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    core::Site site(
        1, network.CreateEndpoint(std::string("s").append(std::to_string(i))));
    Bytes snapshot = RandomBytes(rng, 256);
    Status s = site.LoadSnapshot(AsView(snapshot));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(site.master_count(), 0u);
  }
}

TEST_P(FuzzTest, SnapshotLoaderSurvivesBitFlips) {
  net::LoopbackNetwork network;
  core::Site origin(1, network.CreateEndpoint("origin"));
  auto head = test::MakeChain(4, 16, "n");
  origin.Export(head);
  auto snapshot = origin.SaveSnapshot();
  ASSERT_TRUE(snapshot.ok());

  std::mt19937_64 rng(GetParam());
  int loaded_ok = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes corrupt = *snapshot;
    // Flip 1-4 random bits.
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      corrupt[rng() % corrupt.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    core::Site site(1, network.CreateEndpoint("bf" + std::to_string(i)));
    Status s = site.LoadSnapshot(AsView(corrupt));
    // A flip in field *content* can load "successfully" with wrong values —
    // that is data, not structure. Structural damage must fail cleanly.
    if (s.ok()) ++loaded_ok;
  }
  // Most flips land in structure (ids, counts, tags) and must be rejected.
  EXPECT_LT(loaded_ok, 150);
}

TEST_P(FuzzTest, MessageDecodersSurviveRandomBytes) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    Bytes data = RandomBytes(rng, 96);
    {
      wire::Reader r(AsView(data));
      (void)wire::Decode<core::GetRequest>(r);
    }
    {
      wire::Reader r(AsView(data));
      (void)wire::Decode<core::GetReply>(r);
    }
    {
      wire::Reader r(AsView(data));
      (void)wire::Decode<core::PutRequest>(r);
    }
    {
      wire::Reader r(AsView(data));
      (void)wire::Decode<core::ObjectRecord>(r);
    }
    {
      wire::Reader r(AsView(data));
      (void)wire::Decode<rmi::BoundObject>(r);
    }
  }
  SUCCEED();  // reaching here without UB/crash is the assertion
}

TEST_P(FuzzTest, ObicompParserHandlesReplyFrames) {
  // DecodeReplyFrame on random frames (the TCP client's attack surface).
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes frame = RandomBytes(rng, 64);
    auto decoded = net::DecodeReplyFrame(AsView(frame));
    if (decoded.ok()) {
      // OK frames must start with the ok marker.
      ASSERT_FALSE(frame.empty());
      ASSERT_NE(frame[0], 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(0xA1, 0xB2, 0xC3));

}  // namespace
}  // namespace obiwan
