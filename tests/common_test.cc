// Tests for common/: Status, Result, Rng, string helpers, and env flags.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>

#include "common/env.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace stubby {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad thing");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "failed_precondition");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    STUBBY_RETURN_NOT_OK(Status::Internal("inner"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    STUBBY_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_FALSE(outer(true).ok());
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ZipfIsSkewedAndInRange) {
  Rng rng(11);
  int ones = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextZipf(1000, 1.2);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v == 1) ++ones;
  }
  // Rank 1 should dominate clearly under a Zipf(1.2) law.
  EXPECT_GT(ones, 500);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.Fork();
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(a.Next());
    seen.insert(b.Next());
  }
  EXPECT_GT(seen.size(), 195u);  // no obvious overlap
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.0 GB");
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(42.13), "42.1s");
  EXPECT_EQ(HumanSeconds(125), "2m05.0s");
}

TEST(StringsTest, HashIsStableAndSpreads) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

// Every boolean knob parses alike: unset -> fallback, "0" -> off, anything
// else (the empty string included) -> on.
TEST(EnvFlagTest, ParsesStubbyFlags) {
  struct Case {
    std::optional<const char*> value;  ///< nullopt: unset
    bool fallback;
    bool want;
  };
  const Case cases[] = {
      {std::nullopt, false, false}, {std::nullopt, true, true},
      {"0", true, false},           {"0", false, false},
      {"1", false, true},           {"yes", false, true},
      {"", false, true},
  };
  for (const char* name : {"STUBBY_REOPT", "STUBBY_BLOOM", "STUBBY_TEST_FLAG"}) {
    for (const Case& c : cases) {
      if (c.value.has_value()) {
        setenv(name, *c.value, 1);
      } else {
        unsetenv(name);
      }
      EXPECT_EQ(EnvFlag(name, c.fallback), c.want)
          << name << "=" << c.value.value_or("(unset)") << " fallback "
          << c.fallback;
    }
    unsetenv(name);
  }
}

}  // namespace
}  // namespace stubby
