#include "rdbms/value.h"

#include <gtest/gtest.h>

#include "rdbms/predicate.h"

namespace mdv::rdbms {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(Value::Null().Compare(Value()), 0);
}

TEST(ValueTest, IntAndDoubleCompareNumerically) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.5), Value(int64_t{4}));
}

TEST(ValueTest, LargeIntsCompareExactly) {
  // Values beyond double's 53-bit mantissa must not collapse.
  Value a(int64_t{9007199254740993});  // 2^53 + 1
  Value b(int64_t{9007199254740992});  // 2^53
  EXPECT_GT(a, b);
  EXPECT_NE(a, b);
}

TEST(ValueTest, CanonicalOrderNullNumericString) {
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1000000}), Value("a"));
  EXPECT_LT(Value(""), Value("a"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
}

TEST(ValueTest, TryNumericParsesStrings) {
  EXPECT_EQ(Value("64").TryNumeric(), 64.0);
  EXPECT_EQ(Value("-2.5").TryNumeric(), -2.5);
  EXPECT_FALSE(Value("64MB").TryNumeric().has_value());
  EXPECT_FALSE(Value("").TryNumeric().has_value());
  EXPECT_FALSE(Value().TryNumeric().has_value());
  EXPECT_EQ(Value(int64_t{7}).TryNumeric(), 7.0);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "x");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(CompareTest, NullNeverMatches) {
  EXPECT_FALSE(EvaluateCompare(Value(), CompareOp::kEq, Value()));
  EXPECT_FALSE(EvaluateCompare(Value(int64_t{1}), CompareOp::kNe, Value()));
  EXPECT_FALSE(EvaluateCompare(Value(), CompareOp::kNe, Value(int64_t{1})));
}

TEST(CompareTest, NumericStringCoercionForOrderedOps) {
  // "92" stored as string compared against numeric 64 (paper §3.3.4).
  EXPECT_TRUE(EvaluateCompare(Value("92"), CompareOp::kGt, Value(int64_t{64})));
  EXPECT_FALSE(
      EvaluateCompare(Value("32"), CompareOp::kGt, Value(int64_t{64})));
  EXPECT_FALSE(
      EvaluateCompare(Value("abc"), CompareOp::kGt, Value(int64_t{64})));
}

TEST(CompareTest, Contains) {
  EXPECT_TRUE(EvaluateCompare(Value("pirates.uni-passau.de"),
                              CompareOp::kContains, Value("uni-passau.de")));
  EXPECT_FALSE(EvaluateCompare(Value("tum.de"), CompareOp::kContains,
                               Value("uni-passau.de")));
  EXPECT_FALSE(EvaluateCompare(Value(int64_t{5}), CompareOp::kContains,
                               Value("5")));
}

TEST(CompareTest, FlipSwapsOperandSides) {
  EXPECT_EQ(FlipCompareOp(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(FlipCompareOp(CompareOp::kGe), CompareOp::kLe);
  EXPECT_EQ(FlipCompareOp(CompareOp::kEq), CompareOp::kEq);
}

class CompareOpParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompareOpParamTest, OrderedOpsAgreeWithInts) {
  auto [a, b] = GetParam();
  Value va(static_cast<int64_t>(a));
  Value vb(static_cast<int64_t>(b));
  EXPECT_EQ(EvaluateCompare(va, CompareOp::kLt, vb), a < b);
  EXPECT_EQ(EvaluateCompare(va, CompareOp::kLe, vb), a <= b);
  EXPECT_EQ(EvaluateCompare(va, CompareOp::kGt, vb), a > b);
  EXPECT_EQ(EvaluateCompare(va, CompareOp::kGe, vb), a >= b);
  EXPECT_EQ(EvaluateCompare(va, CompareOp::kEq, vb), a == b);
  EXPECT_EQ(EvaluateCompare(va, CompareOp::kNe, vb), a != b);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CompareOpParamTest,
    ::testing::Combine(::testing::Values(-2, 0, 1, 64, 92),
                       ::testing::Values(-2, 0, 1, 64, 92)));

// ---- TryNumeric boundaries (from_chars semantics, no locale). -------------
//
// The filter reconverts stored rule/data text to numbers on every probe
// (§3.3.4), so the text→number conversion must be locale-independent
// and strict: no partial parses, no silent clamping.

TEST(ValueTryNumericTest, Int64BoundariesRoundTrip) {
  EXPECT_DOUBLE_EQ(*Value("9223372036854775807").TryNumeric(),
                   9223372036854775807.0);
  EXPECT_DOUBLE_EQ(*Value("-9223372036854775808").TryNumeric(),
                   -9223372036854775808.0);
}

TEST(ValueTryNumericTest, LeadingZerosAndNegativeDecimals) {
  EXPECT_DOUBLE_EQ(*Value("007").TryNumeric(), 7.0);
  EXPECT_DOUBLE_EQ(*Value("-0.5").TryNumeric(), -0.5);
  EXPECT_DOUBLE_EQ(*Value("0.0625").TryNumeric(), 0.0625);
}

TEST(ValueTryNumericTest, StrictAboutSurroundingText) {
  // Partial parses and surrounding whitespace are not numbers: rule
  // constants like '64MB' must compare as strings, never as 64.
  EXPECT_FALSE(Value("64MB").TryNumeric().has_value());
  EXPECT_FALSE(Value(" 64").TryNumeric().has_value());
  EXPECT_FALSE(Value("64 ").TryNumeric().has_value());
  EXPECT_FALSE(Value("").TryNumeric().has_value());
  EXPECT_FALSE(Value("+64").TryNumeric().has_value());  // No '+' sign.
  EXPECT_FALSE(Value("0x10").TryNumeric().has_value());
  EXPECT_FALSE(Value("1,5").TryNumeric().has_value());  // Never locale ','.
}

TEST(ValueTryNumericTest, OverflowIsRejectedNotClamped) {
  EXPECT_FALSE(Value(std::string(400, '9')).TryNumeric().has_value());
  EXPECT_FALSE(Value("-" + std::string(400, '9')).TryNumeric().has_value());
}

TEST(ValueTryNumericTest, ScientificNotationParsesExactly) {
  EXPECT_DOUBLE_EQ(*Value("1e3").TryNumeric(), 1000.0);
  EXPECT_DOUBLE_EQ(*Value("2.5E-2").TryNumeric(), 0.025);
  EXPECT_FALSE(Value("1e").TryNumeric().has_value());
}

}  // namespace
}  // namespace mdv::rdbms
