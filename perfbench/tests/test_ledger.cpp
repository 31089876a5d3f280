// Tests of the benchmark's own arithmetic (cpp/ledger.h).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ledger.h"

using namespace perfbench;
using cmfl::fl::IterationRecord;

namespace {

IterationRecord rec(std::size_t t, std::size_t uploads, std::size_t participants,
                    std::size_t cumulative, std::uint64_t bytes, double accuracy,
                    double loss = 1.0) {
  IterationRecord r;
  r.iteration = t;
  r.uploads = uploads;
  r.participants = participants;
  r.cumulative_rounds = cumulative;
  r.cumulative_upload_bytes = bytes;
  r.accuracy = accuracy;
  r.loss = loss;
  return r;
}

}  // namespace

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 3.7);  // pos 2.7
  EXPECT_DOUBLE_EQ(median({5, 1, 9}), 5.0);
}

TEST(Percentile, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 150), 2.0);  // clamped
  const std::vector<double> m = {1, 2, 6};
  EXPECT_DOUBLE_EQ(mean(m), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(ToTarget, TakesTheFirstEvaluationAtTheTarget) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<IterationRecord> h = {
      rec(1, 5, 10, 5, 500, 0.30),
      rec(2, 4, 10, 9, 900, nan, nan),  // not evaluated
      rec(3, 3, 10, 12, 1200, 0.55),
      rec(4, 6, 10, 18, 1800, 0.60),
  };
  const auto tt = to_target(h, 0.5);
  ASSERT_TRUE(tt.has_value());
  EXPECT_EQ(tt->rounds, 3u);
  EXPECT_EQ(tt->uploads, 12u);
  EXPECT_EQ(tt->up_bytes, 1200u);
  EXPECT_EQ(tt->participants, 30u);
  EXPECT_FALSE(to_target(h, 0.7).has_value());
}

TEST(ToTarget, SkipsEvaluationsWithANonFiniteLoss) {
  std::vector<IterationRecord> h = {
      rec(1, 2, 2, 2, 20, 0.9, std::numeric_limits<double>::infinity()),
      rec(2, 1, 2, 3, 30, 0.8),
  };
  const auto tt = to_target(h, 0.75);
  ASSERT_TRUE(tt.has_value());
  EXPECT_EQ(tt->rounds, 2u);
  EXPECT_EQ(tt->up_bytes, 30u);
}

TEST(AccountRound, UnionOfOverlappingSpansAndSelfTime) {
  // Window [0, 100): spans [10,30) and [20,50) overlap on two threads,
  // [60,70) stands alone.  Covered 50, self 50.
  const RoundAccount a = account_round({{20, 50}, {10, 30}, {60, 70}}, {0, 100});
  EXPECT_EQ(a.wall, 100);
  EXPECT_EQ(a.covered, 50);
  EXPECT_EQ(a.self, 50);
  EXPECT_EQ(a.leaked, 0);
  EXPECT_EQ(a.covered + a.self, a.wall);
}

TEST(AccountRound, NestedSpansCountOnceAndSpillIsLeaked) {
  // [5,40) contains [10,20); [90,130) spills 30 ns past the window end and
  // [-10,0) lies wholly before it.
  const RoundAccount a = account_round({{5, 40}, {10, 20}, {90, 130}, {-10, 0}}, {0, 100});
  EXPECT_EQ(a.covered, 35 + 10);
  EXPECT_EQ(a.self, 100 - 45);
  EXPECT_EQ(a.leaked, 30 + 10);
}

TEST(AccountRound, EmptyRoundIsAllSelfTime) {
  const RoundAccount a = account_round({}, {1000, 1600});
  EXPECT_EQ(a.covered, 0);
  EXPECT_EQ(a.self, 600);
}

TEST(ClientPhase, IdleShareCountsStragglerWait) {
  // Two threads over [0, 100): one busy 100, the other 40 → capacity 200,
  // busy 140, idle 30 %.
  const std::vector<ThreadSpan> spans = {{0, {0, 60}}, {0, {60, 100}}, {1, {0, 40}}};
  const Phase p = client_phase(spans);
  EXPECT_EQ(p.busy, 140);
  EXPECT_EQ(p.capacity, 200);
  EXPECT_DOUBLE_EQ(idle_share(p), 0.3);
  EXPECT_DOUBLE_EQ(idle_share(client_phase({})), 0.0);
}

TEST(ByteReconciliation, Formulas) {
  EXPECT_EQ(uplink_fixed(12, 14320), 12u * 14320u);
  // Cluster: 7 update frames of 1 MB-ish plus 2 elimination notices.
  EXPECT_EQ(cluster_uplink(7, 1054057, 2, 29), 7u * 1054057u + 2u * 29u);
  // 5 rounds × 3 workers × one broadcast frame.
  EXPECT_EQ(broadcast_downlink(5, 3, 2108090), 15u * 2108090u);
}
