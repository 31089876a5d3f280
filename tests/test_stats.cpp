#include "stats/cdf.h"

#include <gtest/gtest.h>

#include <vector>

namespace cmfl::stats {
namespace {

TEST(Cdf, EmptyRejected) {
  EXPECT_THROW(Cdf({}), std::invalid_argument);
}

TEST(Cdf, FractionAtOrBelow) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(100.0), 1.0);
}

TEST(Cdf, Quantiles) {
  Cdf cdf({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_THROW(cdf.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(cdf.quantile(1.1), std::invalid_argument);
}

TEST(Cdf, MinMaxCount) {
  Cdf cdf({7.0, -2.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.min(), -2.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 7.0);
  EXPECT_EQ(cdf.count(), 3u);
}

TEST(Cdf, PlotSeriesMonotone) {
  std::vector<double> samples;
  for (int i = 100; i > 0; --i) samples.push_back(i * 0.37);
  Cdf cdf(std::move(samples));
  const auto series = cdf.plot_series(10);
  ASSERT_EQ(series.size(), 10u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].x, series[i - 1].x);
    EXPECT_GT(series[i].fraction, series[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(series.back().fraction, 1.0);
}

TEST(Cdf, PlotSeriesCappedAtSampleCount) {
  Cdf cdf({1.0, 2.0});
  EXPECT_EQ(cdf.plot_series(10).size(), 2u);
  EXPECT_TRUE(cdf.plot_series(0).empty());
}

}  // namespace
}  // namespace cmfl::stats
