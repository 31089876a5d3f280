#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace cmfl::util {
namespace {

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowWidthMismatchRejected) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"scheme", "rounds"});
  t.add_row({"CMFL", "145"});
  t.add_row({"vanilla", "500"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| scheme  | rounds |"), std::string::npos);
  EXPECT_NE(out.find("| CMFL    | 145    |"), std::string::npos);
  EXPECT_NE(out.find("| vanilla | 500    |"), std::string::npos);
}

TEST(Fmt, FixedDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.0, 0), "3");
  EXPECT_EQ(fmt(-1.005, 1), "-1.0");
}

TEST(FmtCount, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(40200), "40,200");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-56600), "-56,600");
}

}  // namespace
}  // namespace cmfl::util
