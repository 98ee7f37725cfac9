// Tests for the common substrate: Status/Result, clocks, ids, logging.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "common/clock.h"
#include "common/ids.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/status.h"

namespace obiwan {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = DisconnectedError("pda is in a tunnel");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDisconnected);
  EXPECT_EQ(s.message(), "pda is in a tunnel");
  EXPECT_EQ(s.ToString(), "DISCONNECTED: pda is in a tunnel");
}

TEST(Status, AllFactoriesMapToTheirCode) {
  EXPECT_EQ(TimeoutError("").code(), StatusCode::kTimeout);
  EXPECT_EQ(NotFoundError("").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(DataLossError("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(ConflictError("").code(), StatusCode::kConflict);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
}

TEST(Status, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(NotFoundError("x"), NotFoundError("x"));
  EXPECT_FALSE(NotFoundError("x") == NotFoundError("y"));
  EXPECT_FALSE(NotFoundError("x") == TimeoutError("x"));
}

TEST(Status, StreamInsertion) {
  std::ostringstream os;
  os << ConflictError("stale");
  EXPECT_EQ(os.str(), "CONFLICT: stale");
}

// A value handed back the way callers receive one: returned from a function.
// (Built in place in the test body, GCC 12 warns that destroying it may read
// the Status alternative's uninitialized string.)
Result<int> ReturnsFortyTwo() { return 42; }

TEST(Result, HoldsValue) {
  const Result<int> r = ReturnsFortyTwo();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = NotFoundError("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string v = std::move(r).value();
  EXPECT_EQ(v.size(), 1000u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  OBIWAN_ASSIGN_OR_RETURN(int half, Half(x));
  OBIWAN_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(Result, AssignOrReturnMacro) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(7).status().code(), StatusCode::kInvalidArgument);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgumentError("negative");
  return Status::Ok();
}

Status CheckAll(int a, int b) {
  OBIWAN_RETURN_IF_ERROR(FailIfNegative(a));
  OBIWAN_RETURN_IF_ERROR(FailIfNegative(b));
  return Status::Ok();
}

TEST(Result, ReturnIfErrorMacro) {
  EXPECT_TRUE(CheckAll(1, 2).ok());
  EXPECT_FALSE(CheckAll(-1, 2).ok());
  EXPECT_FALSE(CheckAll(1, -2).ok());
}

TEST(VirtualClock, AdvancesOnlyOnSleep) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.Sleep(5 * kMilli);
  EXPECT_EQ(clock.Now(), 5 * kMilli);
  clock.Sleep(0);
  clock.Sleep(-3);  // negative sleeps are ignored
  EXPECT_EQ(clock.Now(), 5 * kMilli);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0);
}

TEST(SystemClock, IsMonotonic) {
  SystemClock& clock = SystemClock::Instance();
  Nanos a = clock.Now();
  Nanos b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(Ids, ValidityAndEquality) {
  EXPECT_FALSE(ObjectId{}.valid());
  EXPECT_FALSE((ObjectId{1, 0}).valid());
  EXPECT_FALSE((ObjectId{0, 1}).valid());
  EXPECT_TRUE((ObjectId{1, 1}).valid());
  EXPECT_EQ((ObjectId{3, 7}), (ObjectId{3, 7}));
  EXPECT_NE((ObjectId{3, 7}), (ObjectId{3, 8}));
  EXPECT_LT((ObjectId{3, 7}), (ObjectId{4, 1}));
  EXPECT_EQ(ToString(ObjectId{3, 7}), "obj(3:7)");
}

TEST(Ids, HashSpreadsAcrossSitesAndLocals) {
  std::unordered_set<std::size_t> hashes;
  ObjectIdHash hash;
  for (SiteId site = 1; site <= 16; ++site) {
    for (std::uint64_t local = 1; local <= 64; ++local) {
      hashes.insert(hash(ObjectId{site, local}));
    }
  }
  // Not a strict uniformity test, just "no catastrophic collapse".
  EXPECT_GT(hashes.size(), 1000u - 24u);
}

// The invalid id marks FlatIdSet's empty slots; it is never a member.
TEST(Ids, FlatIdSetHoldsValidIdsOnly) {
  FlatIdSet set;
  EXPECT_FALSE(set.contains(ObjectId{}));
  set.reserve(4);
  for (std::uint64_t local = 1; local <= 100; ++local) {
    EXPECT_TRUE(set.insert(ObjectId{2, local}));
  }
  EXPECT_FALSE(set.insert(ObjectId{2, 50}));
  for (std::uint64_t local = 1; local <= 100; ++local) {
    EXPECT_TRUE(set.contains(ObjectId{2, local}));
  }
  EXPECT_FALSE(set.contains(ObjectId{2, 101}));
  EXPECT_FALSE(set.contains(ObjectId{3, 1}));
  EXPECT_FALSE(set.contains(ObjectId{}));
}

TEST(Log, LevelGate) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  OBIWAN_LOG(kError) << "suppressed";  // must not crash, produces nothing
  SetLogLevel(LogLevel::kError);
  OBIWAN_LOG(kDebug) << "below the gate";
  SetLogLevel(before);
}

TEST(Log, DisabledStatementSkipsStreamEvaluation) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("never built");
  };
  OBIWAN_LOG(kDebug) << expensive();
  OBIWAN_LOG(kError) << expensive();  // counted in metrics, still not built
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(before);
}

TEST(Log, WarningsAndErrorsCountIntoMetrics) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kOff);  // suppressed statements must still count
  auto& reg = MetricsRegistry::Default();
  const std::uint64_t warnings_before =
      reg.GetCounter("obiwan_log_messages_total", {{"level", "warning"}})
          .Value();
  const std::uint64_t errors_before =
      reg.GetCounter("obiwan_log_messages_total", {{"level", "error"}}).Value();
  OBIWAN_LOG(kWarning) << "w";
  OBIWAN_LOG(kError) << "e1";
  OBIWAN_LOG(kError) << "e2";
  OBIWAN_LOG(kInfo) << "not counted";
  EXPECT_EQ(reg.GetCounter("obiwan_log_messages_total", {{"level", "warning"}})
                .Value(),
            warnings_before + 1);
  EXPECT_EQ(
      reg.GetCounter("obiwan_log_messages_total", {{"level", "error"}}).Value(),
      errors_before + 2);
  SetLogLevel(before);
}

}  // namespace
}  // namespace obiwan
