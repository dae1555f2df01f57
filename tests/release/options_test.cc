#include "release/options.h"

#include <gtest/gtest.h>

namespace privtree {
namespace {

using release::MethodOptions;

TEST(MethodOptionsTest, ParseRoundTrips) {
  const MethodOptions options =
      MethodOptions::Parse("height=4,theta=0.5,name=ug");
  EXPECT_EQ(options.GetInt("height", 0), 4);
  EXPECT_DOUBLE_EQ(options.GetDouble("theta", 0.0), 0.5);
  EXPECT_EQ(options.GetString("name", ""), "ug");
  EXPECT_EQ(options.ToString(), "height=4,name=ug,theta=0.5");
}

TEST(MethodOptionsTest, TryParseReportsMalformedEntries) {
  MethodOptions out;
  std::string error;
  EXPECT_TRUE(MethodOptions::TryParse("a=1,b=2", &out, &error));
  EXPECT_EQ(out.GetInt("b", 0), 2);

  EXPECT_FALSE(MethodOptions::TryParse("novalue", &out, &error));
  EXPECT_NE(error.find("novalue"), std::string::npos);
  EXPECT_FALSE(MethodOptions::TryParse("=5", &out, &error));
}

TEST(MethodOptionsTest, EmptyTextGivesEmptyOptions) {
  EXPECT_TRUE(MethodOptions::Parse("").empty());
  EXPECT_TRUE(MethodOptions::Parse(",,").empty());
}

TEST(MethodOptionsTest, FallbacksApplyWhenAbsent) {
  const MethodOptions options;
  EXPECT_EQ(options.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(options.GetDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(options.GetBool("missing", true));
  EXPECT_FALSE(options.Has("missing"));
}

TEST(MethodOptionsTest, BoolAcceptsBothSpellings) {
  const MethodOptions options =
      MethodOptions::Parse("a=1,b=true,c=0,d=false");
  EXPECT_TRUE(options.GetBool("a", false));
  EXPECT_TRUE(options.GetBool("b", false));
  EXPECT_FALSE(options.GetBool("c", true));
  EXPECT_FALSE(options.GetBool("d", true));
}

TEST(MethodOptionsTest, LastSetWins) {
  MethodOptions options;
  options.Set("k", "1");
  options.Set("k", "2");
  EXPECT_EQ(options.GetInt("k", 0), 2);
  EXPECT_EQ(options.entries().size(), 1u);
}

TEST(MethodOptionsTest, ValueParsesAsChecksPerType) {
  using release::OptionType;
  using release::ValueParsesAs;
  EXPECT_TRUE(ValueParsesAs(OptionType::kDouble, "2.5"));
  EXPECT_TRUE(ValueParsesAs(OptionType::kDouble, "1"));
  EXPECT_FALSE(ValueParsesAs(OptionType::kDouble, "abc"));
  EXPECT_FALSE(ValueParsesAs(OptionType::kDouble, "2.5x"));

  EXPECT_TRUE(ValueParsesAs(OptionType::kInt, "20"));
  EXPECT_FALSE(ValueParsesAs(OptionType::kInt, "2.5"));
  EXPECT_FALSE(ValueParsesAs(OptionType::kInt, "abc"));

  EXPECT_TRUE(ValueParsesAs(OptionType::kBool, "true"));
  EXPECT_TRUE(ValueParsesAs(OptionType::kBool, "0"));
  EXPECT_FALSE(ValueParsesAs(OptionType::kBool, "2"));
  EXPECT_FALSE(ValueParsesAs(OptionType::kBool, "yes"));

  EXPECT_FALSE(ValueParsesAs(OptionType::kDouble, ""));
}

TEST(MethodOptionsTest, CheckOptionValueEnforcesDeclaredRanges) {
  using release::CheckOptionValue;
  using release::OptionKey;
  using release::OptionType;

  const OptionKey height{"height", OptionType::kInt, 2, 64};
  EXPECT_TRUE(CheckOptionValue(height, "2").ok());
  EXPECT_TRUE(CheckOptionValue(height, "64").ok());
  EXPECT_FALSE(CheckOptionValue(height, "1").ok());   // Below min.
  EXPECT_FALSE(CheckOptionValue(height, "-3").ok());  // The fitter CHECKs.
  EXPECT_FALSE(CheckOptionValue(height, "65").ok());  // Above max.
  EXPECT_FALSE(CheckOptionValue(height, "2.5").ok());  // Not an integer.

  // Open bounds: the (0, 1) budget-fraction case.
  const OptionKey fraction{"fraction", OptionType::kDouble, 0, 1, true};
  EXPECT_TRUE(CheckOptionValue(fraction, "0.5").ok());
  EXPECT_FALSE(CheckOptionValue(fraction, "0").ok());
  EXPECT_FALSE(CheckOptionValue(fraction, "1").ok());
  EXPECT_FALSE(CheckOptionValue(fraction, "nan").ok());

  // An unbounded key still screens the type, and rejects NaN.
  const OptionKey theta{"theta", OptionType::kDouble};
  EXPECT_TRUE(CheckOptionValue(theta, "-12.25").ok());
  EXPECT_FALSE(CheckOptionValue(theta, "nan").ok());
  EXPECT_FALSE(CheckOptionValue(theta, "oops").ok());

  // Booleans have no range.
  const OptionKey flag{"flag", OptionType::kBool};
  EXPECT_TRUE(CheckOptionValue(flag, "true").ok());
  EXPECT_FALSE(CheckOptionValue(flag, "2").ok());
}

TEST(MethodOptionsDeathTest, MalformedEntryAborts) {
  EXPECT_DEATH(MethodOptions::Parse("novalue"), "malformed");
  EXPECT_DEATH(MethodOptions::Parse("=5"), "malformed");
}

TEST(MethodOptionsDeathTest, NonNumericValueAborts) {
  const MethodOptions options = MethodOptions::Parse("k=abc");
  EXPECT_DEATH(options.GetDouble("k", 0.0), "PRIVTREE_CHECK");
  EXPECT_DEATH(options.GetInt("k", 0), "PRIVTREE_CHECK");
  EXPECT_DEATH(options.GetBool("k", false), "non-boolean");
}

}  // namespace
}  // namespace privtree
