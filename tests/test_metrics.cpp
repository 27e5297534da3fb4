// Unit tests for the metrics module: Summary, Table.

#include <gtest/gtest.h>

#include "dsm/metrics/summary.h"
#include "dsm/metrics/table.h"

namespace dsm {
namespace {

// ----------------------------------------------------------------- Summary

TEST(Summary, EmptyIsAllZeros) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(Summary, QuantilesNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(Summary, QuantileAfterMoreAdds) {
  Summary s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 10.0);
  s.add(1);
  s.add(2);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);  // re-sorts lazily
}

TEST(Summary, StrMentionsTheStats) {
  Summary s;
  s.add(3.5);
  const std::string str = s.str();
  EXPECT_NE(str.find("n=1"), std::string::npos);
  EXPECT_NE(str.find("mean=3.50"), std::string::npos);
}

// ------------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add("x", 1);
  t.add("longer-name", 12345);
  const std::string s = t.str();
  EXPECT_NE(s.find("| name        | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer-name | 12345 |"), std::string::npos);
}

TEST(Table, MixedCellTypes) {
  Table t({"a", "b", "c", "d"});
  t.add("str", 42, 3.14159, std::uint64_t{7});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row_at(0)[0], "str");
  EXPECT_EQ(t.row_at(0)[1], "42");
  EXPECT_EQ(t.row_at(0)[2], "3.14");  // doubles render with 2 decimals
  EXPECT_EQ(t.row_at(0)[3], "7");
}

TEST(Table, CsvEscaping) {
  Table t({"k", "v"});
  t.add("plain", "with,comma");
  t.row({"quoted", "say \"hi\""});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("k,v\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("quoted,\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, EmptyTableStillRendersHeader) {
  Table t({"only"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| only |"), std::string::npos);
  EXPECT_EQ(t.rows(), 0u);
}

}  // namespace
}  // namespace dsm
