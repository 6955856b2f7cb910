#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/interner.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "gtest/gtest.h"

namespace ontorew {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad atom");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad atom");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad atom");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, RetryableTaxonomyIsExactlyTheTransientCodes) {
  // The wire protocol's `retryable` bit is derived from this predicate
  // (server/wire.h): backing off and resending can only help when the
  // failure is load or timing, never when the request itself is wrong.
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetryableStatusCode(StatusCode::kUnavailable));

  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kOk));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kUnimplemented));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryableStatusCode(StatusCode::kCancelled));

  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int n) {
  if (n % 2 != 0) return InvalidArgumentError("odd");
  return n / 2;
}

StatusOr<int> Quarter(int n) {
  OREW_ASSIGN_OR_RETURN(int half, Half(n));
  OREW_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  StatusOr<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  StatusOr<int> err = Quarter(6);  // 6 / 2 = 3, which is odd.
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

// What a default std::ostringstream prints for `value`: StrCat's contract.
template <typename T>
std::string Streamed(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

enum PlainEnum { kPlainZero, kPlainSeven = 7 };

struct Streamable {
  int x;
};
std::ostream& operator<<(std::ostream& os, const Streamable& s) {
  return os << "<" << s.x << ">";
}

TEST(StringsTest, StrCatPrintsExactlyWhatAStreamPrints) {
  const std::int64_t negative = -42;
  const std::int64_t int64_min = std::numeric_limits<std::int64_t>::min();
  const std::uint64_t uint64_max = std::numeric_limits<std::uint64_t>::max();
  const std::size_t size = 123456789;
  const char plain_char = 'x';
  const signed char signed_char = 'y';
  const unsigned char unsigned_char = 'z';
  const double fraction = 1.0 / 3.0;
  const double big = 1e20;
  const std::string_view view = "view";
  const char* c_string = "c-string";
  const short small = -7;
  const unsigned zero = 0;

  EXPECT_EQ(StrCat(negative), Streamed(negative));
  EXPECT_EQ(StrCat(int64_min), Streamed(int64_min));
  EXPECT_EQ(StrCat(int64_min), "-9223372036854775808");
  EXPECT_EQ(StrCat(uint64_max), Streamed(uint64_max));
  EXPECT_EQ(StrCat(uint64_max), "18446744073709551615");
  EXPECT_EQ(StrCat(size), Streamed(size));
  EXPECT_EQ(StrCat(small), Streamed(small));
  EXPECT_EQ(StrCat(zero), Streamed(zero));
  EXPECT_EQ(StrCat(plain_char), Streamed(plain_char));
  EXPECT_EQ(StrCat(signed_char), Streamed(signed_char));
  EXPECT_EQ(StrCat(unsigned_char), Streamed(unsigned_char));
  EXPECT_EQ(StrCat(true, false), Streamed(true) + Streamed(false));
  EXPECT_EQ(StrCat(true, false), "10");
  EXPECT_EQ(StrCat(fraction), Streamed(fraction));
  EXPECT_EQ(StrCat(big), Streamed(big));
  EXPECT_EQ(StrCat(kPlainSeven), Streamed(kPlainSeven));
  EXPECT_EQ(StrCat(view), Streamed(view));
  EXPECT_EQ(StrCat(c_string), Streamed(c_string));
  EXPECT_EQ(StrCat(std::string("str")), "str");
  EXPECT_EQ(StrCat(Streamable{5}), Streamed(Streamable{5}));
  EXPECT_EQ(StrCat("p", 3, '(', Streamable{-1}, view, ")"), "p3(<-1>view)");
}

TEST(StringsTest, StrJoin) {
  std::vector<int> values = {1, 2, 3};
  EXPECT_EQ(StrJoin(values, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ", "), "");
  EXPECT_EQ(StrJoin(std::vector<std::int64_t>{-1, 0, 9}, "|"), "-1|0|9");
  EXPECT_EQ(StrJoin(std::vector<std::string>{"a", "b"}, "::"), "a::b");
  EXPECT_EQ(StrJoin(std::vector<double>{0.5, 2.0}, ","),
            Streamed(0.5) + "," + Streamed(2.0));
  EXPECT_EQ(StrJoin(values, "-",
                    [](std::ostream& os, int v) { os << v * 10; }),
            "10-20-30");
}

TEST(InternerTest, DenseIdsInInsertionOrder) {
  Interner interner;
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.Intern("beta"), 1);
  EXPECT_EQ(interner.Intern("alpha"), 0);
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.NameOf(0), "alpha");
  EXPECT_EQ(interner.NameOf(1), "beta");
}

TEST(InternerTest, FindWithoutInserting) {
  Interner interner;
  EXPECT_EQ(interner.Find("ghost"), -1);
  interner.Intern("ghost");
  EXPECT_EQ(interner.Find("ghost"), 0);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.Uniform(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    int w = rng.UniformIn(5, 8);
    EXPECT_GE(w, 5);
    EXPECT_LE(w, 8);
  }
}

TEST(RngTest, BernoulliExtremesAndBalance) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    if (rng.Bernoulli(0.5)) ++heads;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

}  // namespace
}  // namespace ontorew
