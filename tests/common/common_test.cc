// Foundation tests: Status/Result, string utilities, hashing, counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>

#include "common/counters.h"
#include "common/flags.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace fj {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("file x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "file x");
  EXPECT_EQ(s.ToString(), "NotFound: file x");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kNotFound, StatusCode::kAlreadyExists,
                    StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
                    StatusCode::kInternal, StatusCode::kIOError,
                    StatusCode::kUnimplemented, StatusCode::kDataLoss,
                    StatusCode::kFailedPrecondition}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  FJ_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto ok = Doubled(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 8);
  EXPECT_EQ(*ok, 8);

  auto err = Doubled(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a|b|c", '|'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a||c", '|'), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", '|'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("|", '|'), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitNLimitsFields) {
  EXPECT_EQ(SplitN("a\tb\tc\td", '\t', 2),
            (std::vector<std::string>{"a", "b\tc\td"}));
  EXPECT_EQ(SplitN("a", '\t', 3), (std::vector<std::string>{"a"}));
  EXPECT_EQ(SplitN("a\tb", '\t', 1), (std::vector<std::string>{"a\tb"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ','), ','), parts);
  EXPECT_EQ(Join(parts, "--"), "x----yz");
  EXPECT_EQ(Join({}, ','), "");
}

TEST(StringUtilTest, ParseUint64) {
  EXPECT_EQ(ParseUint64("0").value(), 0u);
  EXPECT_EQ(ParseUint64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());  // overflow
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("12x").ok());
  EXPECT_FALSE(ParseUint64("-1").ok());
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("-42").value(), -42);
  EXPECT_EQ(ParseInt64("+7").value(), 7);
  EXPECT_EQ(ParseInt64("-9223372036854775808").value(), INT64_MIN);
  EXPECT_FALSE(ParseInt64("-9223372036854775809").ok());
  EXPECT_EQ(ParseInt64("9223372036854775807").value(), INT64_MAX);
  EXPECT_FALSE(ParseInt64("9223372036854775808").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, ParseDoubleIsBitIdenticalToStrtod) {
  // Plain decimals take a fast path; every value, on either path, must
  // be strtod's to the bit.
  auto expect_strtod = [](const std::string& text) {
    auto parsed = ParseDouble(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const double want = std::strtod(text.c_str(), nullptr);
    const double got = parsed.value();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << text << ": " << got << " vs " << want;
  };
  Rng rng(424242);
  for (int i = 0; i < 20000; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", rng.NextDouble());
    expect_strtod(buf);
    // 1 to 18 digits with the dot anywhere (or nowhere): 16 and more
    // digits leave the fast path.
    std::string digits;
    const size_t length = 1 + rng.NextBelow(18);
    for (size_t d = 0; d < length; ++d) {
      digits.push_back(static_cast<char>('0' + rng.NextBelow(10)));
    }
    const size_t dot = rng.NextBelow(length + 1);
    if (dot > 0 && dot < length) digits.insert(dot, 1, '.');
    expect_strtod(digits);
  }
  for (const char* text : {"0", "0.0", "00.000", "1", "0.000001", "0.1",
                           "0.3", "999999999999999", "99999999999999.9",
                           "0.000000000000001", "1234567.890123",
                           "9007199254740993", "0.30000000000000004",
                           "5.", ".5", "+0.5", "-0.0", "1e-3", "0x1p-1"}) {
    expect_strtod(text);
  }
}

TEST(HashTest, StableAndSpreading) {
  EXPECT_EQ(HashString("token"), HashString("token"));
  EXPECT_NE(HashString("token"), HashString("tokem"));
  EXPECT_NE(HashInt64(1), HashInt64(2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(CounterTest, AddGetMergeMax) {
  CounterSet a;
  a.Add("x", 3);
  a.Add("x", 4);
  EXPECT_EQ(a.Get("x"), 7);
  EXPECT_EQ(a.Get("missing"), 0);

  CounterSet b;
  b.Add("x", 1);
  b.Add("y", 2);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("x"), 8);
  EXPECT_EQ(a.Get("y"), 2);

  a.Max("peak", 5);
  a.Max("peak", 3);
  a.Max("peak", 9);
  EXPECT_EQ(a.Get("peak"), 9);

  auto snapshot = a.Snapshot();
  EXPECT_EQ(snapshot.size(), 3u);
  a.Clear();
  EXPECT_EQ(a.Get("x"), 0);
}

// A job's counters are its tasks' counters merged: a peak set with Max is
// the largest task peak, not the sum of them, however the set was copied
// or moved on the way.
TEST(CounterTest, MergeKeepsThePeakOfMaxCounters) {
  CounterSet task1;
  task1.Max("peak", 7);
  task1.Add("sum", 7);
  CounterSet task2;
  task2.Max("peak", 5);
  task2.Add("sum", 5);

  CounterSet job;
  job.MergeFrom(task1);
  job.MergeFrom(task2);
  EXPECT_EQ(job.Get("peak"), 7);
  EXPECT_EQ(job.Get("sum"), 12);

  CounterSet copied(job);
  copied.MergeFrom(task1);
  EXPECT_EQ(copied.Get("peak"), 7);
  CounterSet moved(std::move(copied));
  moved.MergeFrom(task2);
  EXPECT_EQ(moved.Get("peak"), 7);
  CounterSet assigned;
  assigned = moved;
  assigned.MergeFrom(task1);
  EXPECT_EQ(assigned.Get("peak"), 7);
  EXPECT_EQ(assigned.Get("sum"), 12 + 7 + 5 + 7);  // sums still add

  // A larger peak from either side wins.
  CounterSet bigger;
  bigger.Max("peak", 9);
  assigned.MergeFrom(bigger);
  EXPECT_EQ(assigned.Get("peak"), 9);
  bigger.MergeFrom(task1);
  EXPECT_EQ(bigger.Get("peak"), 9);
}

TEST(CounterTest, CopyGetsIndependentState) {
  CounterSet a;
  a.Add("x", 1);
  CounterSet b = a;
  b.Add("x", 1);
  EXPECT_EQ(a.Get("x"), 1);
  EXPECT_EQ(b.Get("x"), 2);
}

TEST(FlagsTest, GetCountReadsNonNegativeIntegersOnly) {
  const char* argv[] = {"tool",        "--threads=4", "--neg=-1",
                        "--word=abc",  "--empty=",    "--plus=+3",
                        "--huge=99999999999999999999", "--wide=4294967296",
                        "--narrow=4294967295"};
  const Flags flags(static_cast<int>(std::size(argv)),
                    const_cast<char**>(argv));

  size_t threads = 1;
  ASSERT_TRUE(flags.GetCount("threads", &threads).ok());
  EXPECT_EQ(threads, 4u);
  size_t absent = 7;
  ASSERT_TRUE(flags.GetCount("absent", &absent).ok());
  EXPECT_EQ(absent, 7u);  // the default stands

  for (const char* key : {"neg", "word", "empty", "plus", "huge"}) {
    uint64_t value = 5;
    const Status status = flags.GetCount(key, &value);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(status.message().find(std::string("--") + key + "="),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(value, 5u) << key;  // left unchanged on error
  }
  // The range is the target's: 2^32 does not fit a uint32_t field.
  uint32_t narrow = 0;
  EXPECT_FALSE(flags.GetCount("wide", &narrow).ok());
  ASSERT_TRUE(flags.GetCount("narrow", &narrow).ok());
  EXPECT_EQ(narrow, UINT32_MAX);
  uint64_t wide = 0;
  ASSERT_TRUE(flags.GetCount("wide", &wide).ok());
  EXPECT_EQ(wide, 4294967296ULL);
}

TEST(FlagsTest, CheckNamesTheFirstFlagNoGetterRead) {
  const char* argv[] = {"tool", "run", "--threads=4", "--thraeds=4",
                        "--verbose"};
  const Flags flags(static_cast<int>(std::size(argv)),
                    const_cast<char**>(argv));
  size_t threads = 1;
  ASSERT_TRUE(flags.GetCount("threads", &threads).ok());
  EXPECT_FALSE(flags.Has("absent"));  // reading an absent key is fine
  Status status = flags.Check();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--thraeds"), std::string::npos)
      << status.ToString();
  // Once every given flag has been read, the check passes; positional
  // arguments are not flags.
  EXPECT_EQ(flags.GetInt("thraeds", 0), 4);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_TRUE(flags.Check().ok());
}

TEST(FlagsTest, MalformedNumbersKeepTheDefaultAndFailTheCheck) {
  const char* argv[] = {"tool",         "--seed=xyz", "--p=abc",
                        "--int=-12",    "--num=0.25", "--exp=1e-3",
                        "--partial=12x", "--flag"};
  const Flags flags(static_cast<int>(std::size(argv)),
                    const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("int", 0), -12);
  EXPECT_DOUBLE_EQ(flags.GetDouble("num", 0), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("exp", 0), 1e-3);
  EXPECT_EQ(flags.GetInt("flag", 0), 1);  // a bare flag reads as 1

  EXPECT_EQ(flags.GetInt("seed", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 0.5), 0.5);
  EXPECT_EQ(flags.GetInt("partial", 3), 3);
  // The first malformed value is the one reported.
  const Status status = flags.Check();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--seed=xyz"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace fj
