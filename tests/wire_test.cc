// Wire format unit + property tests: primitive roundtrips, varint edges,
// truncation/corruption safety, codec coverage.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "wire/codec.h"
#include "wire/reader.h"
#include "wire/writer.h"

namespace obiwan::wire {
namespace {

TEST(Writer, PrimitivesRoundTrip) {
  Writer w;
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.Bool(true);
  w.Bool(false);
  w.F64(3.14159);
  w.F32(2.5f);
  w.String("hello");
  w.Blob(Bytes{1, 2, 3});

  Reader r(AsView(w.data()));
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159);
  EXPECT_FLOAT_EQ(r.F32(), 2.5f);
  EXPECT_EQ(r.String(), "hello");
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

TEST(Writer, LittleEndianLayout) {
  Writer w;
  w.U32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Varint, KnownEncodings) {
  auto encoded_size = [](std::uint64_t v) {
    Writer w;
    w.Varint(v);
    return w.size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(127), 1u);
  EXPECT_EQ(encoded_size(128), 2u);
  EXPECT_EQ(encoded_size(16383), 2u);
  EXPECT_EQ(encoded_size(16384), 3u);
  EXPECT_EQ(encoded_size(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(Varint, BoundaryRoundTrips) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{16383}, std::uint64_t{16384}, std::uint64_t{1} << 32,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    Writer w;
    w.Varint(v);
    Reader r(AsView(w.data()));
    EXPECT_EQ(r.Varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Varint, SignedZigzag) {
  for (std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1}, std::int64_t{-64},
        std::int64_t{63}, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    Writer w;
    w.Svarint(v);
    Reader r(AsView(w.data()));
    EXPECT_EQ(r.Svarint(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Varint, SmallMagnitudesStaySmall) {
  Writer w;
  w.Svarint(-1);
  EXPECT_EQ(w.size(), 1u);  // zigzag keeps -1 compact, unlike two's complement
}

TEST(Reader, TruncationIsStickyNotFatal) {
  Writer w;
  w.U32(42);
  Reader r(AsView(w.data()));
  EXPECT_EQ(r.U32(), 42u);
  EXPECT_EQ(r.U32(), 0u);  // past the end: zero, marked failed
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Everything after the failure keeps returning zero values.
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.String(), "");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Reader, MalformedVarintFails) {
  Bytes data(11, 0xFF);  // continuation bit forever
  Reader r(AsView(data));
  EXPECT_EQ(r.Varint(), 0u);
  EXPECT_FALSE(r.ok());
}

// The varint fast paths (a one-byte varint, and any varint once ten bytes
// remain) and the byte-by-byte path meet at these boundaries: each decodes
// the same value, and a read past the end fails with the same sticky error.
TEST(Reader, VarintEndingOnTheBuffersLastByte) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::uint64_t{1} << 35, std::numeric_limits<std::uint64_t>::max()}) {
    Writer w;
    w.U8(0x55);  // the varint does not start the buffer
    w.Varint(v);
    Reader r(AsView(w.data()));
    EXPECT_EQ(r.U8(), 0x55);
    EXPECT_EQ(r.Varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(r.Varint(), 0u);
    EXPECT_EQ(r.status().message(), "truncated input (need 1 bytes, have 0)");
    EXPECT_EQ(r.Varint(), 0u);  // sticky
    EXPECT_EQ(r.status().message(), "truncated input (need 1 bytes, have 0)");
  }
}

TEST(Reader, TenByteVarintWithTenAndElevenBytesLeft) {
  Writer w;
  w.Varint(std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(w.size(), 10u);
  for (std::size_t trailing : {0u, 1u}) {
    Bytes data = w.data();
    data.resize(10 + trailing, 0x07);
    Reader r(AsView(data));
    EXPECT_EQ(r.Varint(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), trailing);
  }
  // One byte short: the last continuation bit runs off the end.
  Reader cut(AsView(w.data()).first(9));
  EXPECT_EQ(cut.Varint(), 0u);
  EXPECT_EQ(cut.status().message(), "truncated input (need 1 bytes, have 0)");
}

TEST(Reader, ElevenByteVarintIsMalformed) {
  for (std::size_t size : {10u, 11u, 16u}) {
    Bytes data(size, 0x80);  // ten continuation bytes ...
    if (size > 10) data[10] = 0x01;  // ... and an eleventh that ends it
    Reader r(AsView(data));
    EXPECT_EQ(r.Varint(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(), "malformed varint") << size << " bytes";
    EXPECT_EQ(r.Varint(), 0u);  // sticky
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.status().message(), "malformed varint");
  }
}

TEST(Reader, BlobLengthOnTheFastPathThenOverrun) {
  // A one-byte length promising more than follows.
  Bytes short_blob{5, 'a', 'b'};
  Reader one(AsView(short_blob));
  EXPECT_TRUE(one.BlobView().empty());
  EXPECT_EQ(one.status().message(), "truncated input (need 5 bytes, have 2)");
  EXPECT_EQ(one.U8(), 0u);  // sticky
  // A two-byte length read with ten bytes or more left, then the overrun.
  Writer w;
  w.Varint(300);
  for (std::uint8_t i = 0; i < 12; ++i) w.U8(i);
  Reader two(AsView(w.data()));
  const std::string overrun = "truncated input (need 300 bytes, have 12)";
  EXPECT_TRUE(two.Blob().empty());
  EXPECT_EQ(two.status().message(), overrun);
  EXPECT_EQ(two.String(), "");
  EXPECT_EQ(two.status().message(), overrun);
}

TEST(Reader, HostileStringLength) {
  Writer w;
  w.Varint(std::numeric_limits<std::uint64_t>::max());  // absurd length prefix
  Reader r(AsView(w.data()));
  EXPECT_EQ(r.String(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Reader, ExplicitFail) {
  Writer w;
  w.U8(7);
  Reader r(AsView(w.data()));
  r.Fail("bad enum");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0);  // reads after Fail return nothing
  // First failure wins.
  r.Fail("second");
  EXPECT_NE(r.status().message().find("bad enum"), std::string::npos);
}

TEST(Reader, BlobViewDoesNotCopy) {
  Writer w;
  w.Blob(Bytes{9, 8, 7});
  Reader r(AsView(w.data()));
  BytesView v = r.BlobView();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), w.data().data() + 1);  // points into the source buffer
}

TEST(Reader, StringViewPointsIntoTheBuffer) {
  Writer w;
  w.String("node");
  Reader r(AsView(w.data()));
  std::string_view v = r.StringView();
  EXPECT_EQ(v, "node");
  EXPECT_EQ(static_cast<const void*>(v.data()),
            static_cast<const void*>(w.data().data() + 1));
  Reader cut(AsView(w.data()).first(3));
  EXPECT_TRUE(cut.StringView().empty());
  EXPECT_FALSE(cut.ok());
}

// A blob written in place has Blob()'s bytes whatever length was expected,
// across the one-, two- and three-byte prefix boundaries.
TEST(Writer, BlobInPlaceMatchesBlob) {
  for (std::size_t n : {0u, 1u, 127u, 128u, 1000u, 16383u, 16384u, 20000u}) {
    for (std::size_t expected : {0u, 127u, 128u, 16384u, 1u << 21}) {
      Bytes body(n);
      for (std::size_t i = 0; i < n; ++i) body[i] = static_cast<std::uint8_t>(i);
      Writer want;
      want.U8(0xEE);
      want.Blob(AsView(body));
      want.U8(0xFF);

      Writer got;
      got.U8(0xEE);
      const Writer::BlobMark mark = got.BeginBlob(expected);
      got.Raw(AsView(body));
      EXPECT_EQ(got.EndBlob(mark), n);
      got.U8(0xFF);
      EXPECT_EQ(got.data(), want.data()) << n << " bytes, " << expected
                                         << " expected";
    }
  }
}

// --- Codec coverage ---------------------------------------------------------

template <typename T>
T RoundTrip(const T& v) {
  Writer w;
  Encode(w, v);
  Reader r(AsView(w.data()));
  T out = Decode<T>(r);
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.AtEnd());
  return out;
}

TEST(Codec, Scalars) {
  EXPECT_EQ(RoundTrip<bool>(true), true);
  EXPECT_EQ(RoundTrip<std::uint8_t>(255), 255);
  EXPECT_EQ(RoundTrip<std::int32_t>(-123456), -123456);
  EXPECT_EQ(RoundTrip<std::uint64_t>(1ull << 63), 1ull << 63);
  EXPECT_DOUBLE_EQ(RoundTrip<double>(-2.718), -2.718);
  EXPECT_EQ(RoundTrip<std::string>("wide area"), "wide area");
}

TEST(Codec, OutOfRangeIntegerRejected) {
  Writer w;
  Encode<std::uint64_t>(w, 300);
  Reader r(AsView(w.data()));
  EXPECT_EQ(Decode<std::uint8_t>(r), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Codec, SignedOutOfRangeRejected) {
  Writer w;
  Encode<std::int64_t>(w, -40000);
  Reader r(AsView(w.data()));
  EXPECT_EQ(Decode<std::int16_t>(r), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Codec, Containers) {
  EXPECT_EQ(RoundTrip(std::vector<std::int32_t>{1, -2, 3}),
            (std::vector<std::int32_t>{1, -2, 3}));
  EXPECT_EQ(RoundTrip(std::vector<std::string>{"a", "", "ccc"}),
            (std::vector<std::string>{"a", "", "ccc"}));
  EXPECT_EQ(RoundTrip(Bytes{0, 255, 128}), (Bytes{0, 255, 128}));
  EXPECT_EQ(RoundTrip(std::optional<std::string>{}), std::nullopt);
  EXPECT_EQ(RoundTrip(std::optional<std::string>{"x"}), "x");
  EXPECT_EQ(RoundTrip(std::pair<std::string, std::int64_t>{"k", -7}),
            (std::pair<std::string, std::int64_t>{"k", -7}));
  std::map<std::uint32_t, std::string> m{{1, "one"}, {2, "two"}};
  EXPECT_EQ(RoundTrip(m), m);
  std::unordered_map<std::string, std::uint64_t> um{{"a", 1}, {"b", 2}};
  EXPECT_EQ(RoundTrip(um), um);
}

TEST(Codec, NestedContainers) {
  std::vector<std::vector<std::string>> v{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(RoundTrip(v), v);
  std::map<std::string, std::vector<std::int32_t>> m{{"xs", {1, 2}}, {"ys", {}}};
  EXPECT_EQ(RoundTrip(m), m);
}

TEST(Codec, Tuples) {
  auto t = std::make_tuple(std::string("call"), std::int64_t{-9}, true);
  EXPECT_EQ(RoundTrip(t), t);
  EXPECT_EQ(RoundTrip(std::tuple<>{}), std::tuple<>{});
}

TEST(Codec, Ids) {
  ObjectId oid{7, 12345};
  EXPECT_EQ(RoundTrip(oid), oid);
  ProxyId pin{3, 999};
  EXPECT_EQ(RoundTrip(pin), pin);
}

TEST(Codec, HostileContainerLengthRejected) {
  Writer w;
  w.Varint(1'000'000);  // claims a million entries, provides none
  Reader r(AsView(w.data()));
  auto v = Decode<std::vector<std::int32_t>>(r);
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

// --- Property sweeps ----------------------------------------------------------

class VarintPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintPropertyTest, RandomValuesRoundTrip) {
  std::mt19937_64 rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    // Cover all magnitudes: shift a random 64-bit value by a random amount.
    std::uint64_t v = rng() >> (rng() % 64);
    Writer w;
    w.Varint(v);
    Reader r(AsView(w.data()));
    ASSERT_EQ(r.Varint(), v);
    ASSERT_TRUE(r.AtEnd());

    std::int64_t s = static_cast<std::int64_t>(rng() >> (rng() % 64)) *
                     ((rng() & 1) != 0u ? 1 : -1);
    Writer w2;
    w2.Svarint(s);
    Reader r2(AsView(w2.data()));
    ASSERT_EQ(r2.Svarint(), s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(1, 42, 1337, 0xDEADBEEF));

class TruncationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: decoding any strict prefix of a valid message never crashes and
// always reports failure (no silent short reads).
TEST_P(TruncationPropertyTest, EveryPrefixFailsCleanly) {
  std::mt19937_64 rng(GetParam());
  Writer w;
  w.String("header");
  w.Varint(rng());
  Encode(w, std::vector<std::string>{"one", "two", "three"});
  w.F64(1.25);
  Encode(w, ObjectId{3, 77});
  const Bytes& full = w.data();

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(BytesView(full.data(), cut));
    (void)r.String();
    (void)r.Varint();
    (void)Decode<std::vector<std::string>>(r);
    (void)r.F64();
    (void)Decode<ObjectId>(r);
    ASSERT_FALSE(r.ok()) << "prefix of " << cut << " bytes decoded 'successfully'";
    ASSERT_EQ(r.status().code(), StatusCode::kDataLoss);
  }

  // The full message decodes fine.
  Reader r(AsView(full));
  (void)r.String();
  (void)r.Varint();
  (void)Decode<std::vector<std::string>>(r);
  (void)r.F64();
  (void)Decode<ObjectId>(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TruncationPropertyTest, ::testing::Values(7, 99));

}  // namespace
}  // namespace obiwan::wire
