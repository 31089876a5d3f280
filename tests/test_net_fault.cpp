#include "net/fault.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/message.h"
#include "net/wire.h"

namespace cmfl::net {
namespace {

std::vector<std::byte> sealed_frame(std::uint32_t seq) {
  auto frame = encode(Message(EliminationMsg{seq, 1, 0, 0.5}));
  seal_frame(frame);
  return frame;
}

TEST(FaultPlan, DisabledByDefault) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.validate(4);
}

TEST(FaultPlan, EnabledByAnyConfiguredFault) {
  {
    FaultPlan p;
    p.uplink.drop_prob = 0.1;
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.downlink_overrides[2].corrupt_prob = 0.5;
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.straggler_delay_s[1] = 0.2;
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.crash_at_iteration[0] = 3;
    EXPECT_TRUE(p.enabled());
  }
}

TEST(FaultPlan, OverridesShadowDefaults) {
  FaultPlan plan;
  plan.uplink.drop_prob = 0.1;
  plan.uplink_overrides[2] = LinkFaults{.drop_prob = 0.9};
  EXPECT_DOUBLE_EQ(plan.uplink_for(0).drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.uplink_for(2).drop_prob, 0.9);
  EXPECT_DOUBLE_EQ(plan.downlink_for(2).drop_prob, 0.0);
  EXPECT_DOUBLE_EQ(plan.straggler_delay_for(5), 0.0);
  EXPECT_FALSE(plan.crash_iteration_for(5).has_value());
  plan.crash_at_iteration[5] = 7;
  ASSERT_TRUE(plan.crash_iteration_for(5).has_value());
  EXPECT_EQ(*plan.crash_iteration_for(5), 7u);
}

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  {
    FaultPlan p;
    p.uplink.drop_prob = 1.5;
    EXPECT_THROW(p.validate(4), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.downlink.corrupt_prob = -0.1;
    EXPECT_THROW(p.validate(4), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.uplink_overrides[9].duplicate_prob = 0.5;  // worker out of range
    EXPECT_THROW(p.validate(4), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.straggler_delay_s[1] = -0.5;
    EXPECT_THROW(p.validate(4), std::invalid_argument);
  }
  for (const double delay : {std::nan(""), HUGE_VAL}) {
    FaultPlan p;
    p.straggler_delay_s[1] = delay;
    EXPECT_THROW(p.validate(4), std::invalid_argument) << delay;
  }
  {
    FaultPlan p;
    p.replica_restart.push_back({3, 2, HUGE_VAL, StorageFault::kNone});
    EXPECT_THROW(p.validate(4), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.crash_at_iteration[4] = 1;  // worker out of range for 4 workers
    EXPECT_THROW(p.validate(4), std::invalid_argument);
  }
}

TEST(FaultPlan, LinkRngStreamsAreDeterministicAndIndependent) {
  FaultPlan a, b;
  a.seed = b.seed = 77;
  auto r1 = a.link_rng(3, true);
  auto r2 = b.link_rng(3, true);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(r1.next_u64(), r2.next_u64());
  // A different link (other direction, other worker) gets a distinct stream.
  auto up = a.link_rng(3, true);
  auto down = a.link_rng(3, false);
  auto other = a.link_rng(4, true);
  bool up_vs_down_differ = false, up_vs_other_differ = false;
  for (int i = 0; i < 64; ++i) {
    const auto u = up.next_u64();
    if (u != down.next_u64()) up_vs_down_differ = true;
    if (u != other.next_u64()) up_vs_other_differ = true;
  }
  EXPECT_TRUE(up_vs_down_differ);
  EXPECT_TRUE(up_vs_other_differ);
}

TEST(FaultyChannel, DropAllDeliversNothingButSendSucceeds) {
  Channel ch;
  FaultStats stats;
  FaultPlan plan;
  FaultyChannel faulty(ch, LinkFaults{.drop_prob = 1.0}, plan.link_rng(0, true),
                       &stats);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(faulty.send(sealed_frame(i)));
  }
  EXPECT_FALSE(ch.recv_for(std::chrono::milliseconds(0)).has_value());
  EXPECT_EQ(stats.frames_dropped.load(), 5u);
  EXPECT_EQ(stats.frames_corrupted.load(), 0u);
  EXPECT_EQ(stats.frames_duplicated.load(), 0u);
}

TEST(FaultyChannel, CorruptAllFlipsExactlyOneBitAndCrcCatchesIt) {
  Channel ch;
  FaultStats stats;
  FaultPlan plan;
  FaultyChannel faulty(ch, LinkFaults{.corrupt_prob = 1.0},
                       plan.link_rng(0, true), &stats);
  const auto original = sealed_frame(42);
  ASSERT_TRUE(faulty.send(original));
  const auto delivered = ch.recv();
  ASSERT_TRUE(delivered.has_value());
  ASSERT_EQ(delivered->size(), original.size());
  int differing_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    auto diff =
        static_cast<unsigned>((*delivered)[i] ^ original[i]) & 0xFFu;
    while (diff != 0) {
      differing_bits += static_cast<int>(diff & 1u);
      diff >>= 1;
    }
  }
  EXPECT_EQ(differing_bits, 1);
  // The corruption travels through the real CRC path.
  EXPECT_FALSE(try_open_frame(*delivered).has_value());
  EXPECT_TRUE(try_open_frame(original).has_value());
  EXPECT_EQ(stats.frames_corrupted.load(), 1u);
}

TEST(FaultyChannel, DuplicateAllDeliversTwoIdenticalCopies) {
  Channel ch;
  FaultStats stats;
  FaultPlan plan;
  FaultyChannel faulty(ch, LinkFaults{.duplicate_prob = 1.0},
                       plan.link_rng(0, true), &stats);
  const auto original = sealed_frame(7);
  ASSERT_TRUE(faulty.send(original));
  const auto first = ch.recv_for(std::chrono::milliseconds(0));
  const auto second = ch.recv_for(std::chrono::milliseconds(0));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, original);
  EXPECT_EQ(*second, original);
  EXPECT_FALSE(ch.recv_for(std::chrono::milliseconds(0)).has_value());
  EXPECT_EQ(stats.frames_duplicated.load(), 1u);
}

TEST(FaultyChannel, NoFaultsIsByteIdenticalPassthrough) {
  Channel ch;
  FaultStats stats;
  FaultPlan plan;
  FaultyChannel faulty(ch, LinkFaults{}, plan.link_rng(0, false), &stats);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto original = sealed_frame(i);
    ASSERT_TRUE(faulty.send(original));
    const auto delivered = ch.recv();
    ASSERT_TRUE(delivered.has_value());
    EXPECT_EQ(*delivered, original);
  }
  EXPECT_EQ(stats.frames_dropped.load(), 0u);
  EXPECT_EQ(stats.frames_corrupted.load(), 0u);
  EXPECT_EQ(stats.frames_duplicated.load(), 0u);
}

TEST(FaultyChannel, SendOnClosedChannelReturnsFalse) {
  Channel ch;
  ch.close();
  FaultStats stats;
  FaultPlan plan;
  FaultyChannel faulty(ch, LinkFaults{}, plan.link_rng(0, true), &stats);
  EXPECT_FALSE(faulty.send(sealed_frame(1)));
  // A dropped frame never touches the channel, so the send still "succeeds".
  FaultyChannel dropper(ch, LinkFaults{.drop_prob = 1.0},
                        plan.link_rng(1, true), &stats);
  EXPECT_TRUE(dropper.send(sealed_frame(2)));
}

TEST(FaultyChannel, SameSeedSameSendSequenceSameFaults) {
  // The determinism contract: the injected fault sequence is a pure
  // function of (plan seed, link, send sequence).
  const LinkFaults faults{.drop_prob = 0.3, .corrupt_prob = 0.2,
                          .duplicate_prob = 0.2};
  auto run = [&] {
    Channel ch;
    FaultStats stats;
    FaultPlan plan;
    plan.seed = 2024;
    FaultyChannel faulty(ch, faults, plan.link_rng(2, false), &stats);
    for (std::uint32_t i = 0; i < 200; ++i) faulty.send(sealed_frame(i));
    ch.close();
    std::vector<std::vector<std::byte>> delivered;
    while (auto f = ch.recv()) delivered.push_back(std::move(*f));
    return std::tuple(std::move(delivered), stats.frames_dropped.load(),
                      stats.frames_corrupted.load(),
                      stats.frames_duplicated.load());
  };
  const auto [frames_a, drop_a, corrupt_a, dup_a] = run();
  const auto [frames_b, drop_b, corrupt_b, dup_b] = run();
  EXPECT_EQ(frames_a, frames_b);
  EXPECT_EQ(drop_a, drop_b);
  EXPECT_EQ(corrupt_a, corrupt_b);
  EXPECT_EQ(dup_a, dup_b);
  // With 200 sends at these rates, every fault type fires essentially
  // always (P[none] < 1e-20 per type).
  EXPECT_GT(drop_a, 0u);
  EXPECT_GT(corrupt_a, 0u);
  EXPECT_GT(dup_a, 0u);
}

}  // namespace
}  // namespace cmfl::net
