// sched::Population: deterministic hashed device traits, availability
// churn, lazy materialization with a bounded warm pool, and checkpointable
// sparse device state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "fl/convex_testbed.h"
#include "sched/population.h"

namespace cmfl::sched {
namespace {

ClientFactory convex_factory(std::size_t dim = 4, std::uint64_t seed = 5) {
  return [dim, seed](std::uint64_t device) {
    std::vector<float> center(dim);
    for (auto& c : center) {
      c = util::Rng(seed ^ device).normal_f(0.0f, 1.0f);
    }
    return std::make_unique<fl::ConvexClient>(center, /*local_steps=*/2,
                                              /*gradient_noise=*/0.1,
                                              util::Rng(seed).split(device),
                                              /*start_offset=*/0.0f);
  };
}

PopulationSpec churn_spec(std::uint64_t devices = 64) {
  PopulationSpec spec;
  spec.devices = devices;
  spec.mean_on_fraction = 0.6;
  spec.dropout_mid_round = 0.1;
  spec.seed = 99;
  return spec;
}

TEST(Population, ValidatesSpec) {
  EXPECT_THROW(Population(PopulationSpec{}, convex_factory()),
               std::invalid_argument);  // zero devices
  PopulationSpec bad = churn_spec();
  bad.mean_on_fraction = 1.5;
  EXPECT_THROW(Population(bad, convex_factory()), std::invalid_argument);
  // Non-finite knobs: NaN fails every range, and no knob may be infinite.
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (double PopulationSpec::*knob :
       {&PopulationSpec::mean_on_fraction, &PopulationSpec::dropout_mid_round,
        &PopulationSpec::duty_period_rounds, &PopulationSpec::latency_base_s,
        &PopulationSpec::latency_log_sigma, &PopulationSpec::latency_jitter}) {
    for (const double value : {nan, inf}) {
      if (value == inf && (knob == &PopulationSpec::mean_on_fraction ||
                           knob == &PopulationSpec::dropout_mid_round)) {
        continue;  // above their upper bounds, rejected already
      }
      PopulationSpec spec = churn_spec();
      spec.*knob = value;
      EXPECT_THROW(Population(spec, convex_factory()), std::invalid_argument)
          << value;
    }
  }
  EXPECT_THROW(Population(churn_spec(), nullptr), std::invalid_argument);
}

TEST(Population, TraitsAreDeterministicAndSeedSensitive) {
  Population a(churn_spec(), convex_factory());
  Population b(churn_spec(), convex_factory());
  PopulationSpec other = churn_spec();
  other.seed = 100;
  Population c(other, convex_factory());

  bool any_differs_across_seeds = false;
  for (std::uint64_t d = 0; d < 64; ++d) {
    EXPECT_EQ(a.speed_factor(d), b.speed_factor(d));
    EXPECT_GT(a.speed_factor(d), 0.0);
    for (std::uint64_t r = 1; r <= 10; ++r) {
      EXPECT_EQ(a.available(d, r), b.available(d, r));
      EXPECT_EQ(a.drops_mid_round(d, r), b.drops_mid_round(d, r));
      EXPECT_EQ(a.draw_latency(d, r), b.draw_latency(d, r));
      EXPECT_GT(a.draw_latency(d, r), 0.0);
      if (a.available(d, r) != c.available(d, r)) {
        any_differs_across_seeds = true;
      }
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(Population, ChurnMatchesMeanOnFraction) {
  Population p(churn_spec(1000), convex_factory());
  std::size_t on = 0;
  std::size_t total = 0;
  for (std::uint64_t d = 0; d < 1000; ++d) {
    for (std::uint64_t r = 1; r <= 20; ++r) {
      on += p.available(d, r) ? 1 : 0;
      ++total;
    }
  }
  const double frac = static_cast<double>(on) / static_cast<double>(total);
  EXPECT_NEAR(frac, 0.6, 0.05);
}

TEST(Population, DutyCyclesAlternateOnAndOffRuns) {
  PopulationSpec spec = churn_spec(32);
  spec.duty_period_rounds = 10.0;
  Population p(spec, convex_factory());
  // Every device must show both states over a few periods (no always-off
  // device at mean_on_fraction 0.6), and transitions must be runs, not
  // independent coin flips: count state changes over 60 rounds — a duty
  // cycle of period ~10 changes state ~12 times, a Bernoulli(0.6) sequence
  // ~28 times.
  for (std::uint64_t d = 0; d < 32; ++d) {
    std::size_t on = 0;
    std::size_t switches = 0;
    bool prev = p.available(d, 1);
    for (std::uint64_t r = 1; r <= 60; ++r) {
      const bool a = p.available(d, r);
      on += a ? 1 : 0;
      if (a != prev) ++switches;
      prev = a;
    }
    EXPECT_GT(on, 0u) << "device " << d;
    EXPECT_LT(on, 60u) << "device " << d;
    EXPECT_LT(switches, 20u) << "device " << d;
  }
}

TEST(Population, SampleIsDeterministicSortedAndExclusionAware) {
  Population p(churn_spec(200), convex_factory());
  util::Rng rng1(7);
  util::Rng rng2(7);
  const auto s1 = p.sample(3, 20, Selection::kUniform, rng1);
  const auto s2 = p.sample(3, 20, Selection::kUniform, rng2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 20u);
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end()));
  EXPECT_EQ(std::set<std::uint64_t>(s1.begin(), s1.end()).size(), s1.size());

  // Excluded devices never appear.
  util::Rng rng3(7);
  const auto s3 = p.sample(3, 20, Selection::kUniform, rng3,
                           [](std::uint64_t d) { return d % 2 == 0; });
  for (const auto d : s3) EXPECT_EQ(d % 2, 1u);

  // Availability-aware sampling only picks devices on this round.
  util::Rng rng4(7);
  const auto s4 = p.sample(5, 20, Selection::kAvailabilityAware, rng4);
  for (const auto d : s4) EXPECT_TRUE(p.available(d, 5));
}

TEST(Population, LazyMaterializationAndLruEviction) {
  PopulationSpec spec = churn_spec(100);
  spec.max_resident = 2;
  Population p(spec, convex_factory());
  EXPECT_EQ(p.resident(), 0u);
  EXPECT_EQ(p.materializations(), 0u);

  auto& c0 = p.acquire(0);
  EXPECT_THROW(p.acquire(0), std::logic_error);  // double acquire
  auto& c1 = p.acquire(1);
  auto& c2 = p.acquire(2);
  (void)c0;
  (void)c1;
  (void)c2;
  EXPECT_EQ(p.resident(), 3u);       // in-use clients are never evicted
  EXPECT_EQ(p.peak_resident(), 3u);
  EXPECT_EQ(p.materializations(), 3u);

  p.release(0);
  p.release(1);
  p.release(2);
  // Warm pool capped at 2: the LRU client (0) was evicted on release.
  EXPECT_EQ(p.resident(), 2u);

  // Re-acquiring a warm client does not re-materialize; an evicted one does.
  p.acquire(1);
  p.release(1);
  EXPECT_EQ(p.materializations(), 3u);
  p.acquire(0);
  p.release(0);
  EXPECT_EQ(p.materializations(), 4u);
}

TEST(Population, EvictionPreservesMutableStateExactly) {
  // Drive a client's RNG, evict it, revive it: the revived client must
  // continue the stream exactly where the resident one left off.
  PopulationSpec spec = churn_spec(10);
  spec.max_resident = 0;  // evict immediately on release
  Population p(spec, convex_factory(/*dim=*/4));

  auto& first = p.acquire(7);
  std::vector<float> params(4);
  first.get_params(params);
  first.train_local(/*epochs=*/1, /*batch_size=*/1, /*lr=*/0.1f);
  std::vector<float> after_one(4);
  first.get_params(after_one);
  const auto state = first.mutable_state();
  p.release(7);
  EXPECT_EQ(p.resident(), 0u);

  auto& revived = p.acquire(7);
  EXPECT_EQ(revived.mutable_state(), state);
  // A twin population trained twice without eviction must match the
  // evict-revive trajectory bit-for-bit.
  Population q(spec, convex_factory(/*dim=*/4));
  auto& straight = q.acquire(7);
  straight.train_local(1, 1, 0.1f);
  revived.set_params(after_one);
  straight.train_local(1, 1, 0.1f);
  revived.train_local(1, 1, 0.1f);
  std::vector<float> a(4);
  std::vector<float> b(4);
  straight.get_params(a);
  revived.get_params(b);
  EXPECT_EQ(a, b);
  p.release(7);
  q.release(7);
}

TEST(Population, StateWordsRoundTrip) {
  PopulationSpec spec = churn_spec(50);
  spec.max_resident = 1;
  Population p(spec, convex_factory());
  for (const std::uint64_t d : {3u, 14u, 15u, 9u, 26u}) {
    auto& c = p.acquire(d);
    c.train_local(1, 1, 0.05f);
    p.release(d);
  }
  const util::StateMap states = p.states();
  EXPECT_FALSE(states.empty());

  // A fresh population restored from the map reports identical state.
  Population q(spec, convex_factory());
  q.restore_states(states);
  EXPECT_EQ(q.states(), states);
  // And revives clients with the saved streams.
  auto& from_p = p.acquire(14);
  auto& from_q = q.acquire(14);
  EXPECT_EQ(from_p.mutable_state(), from_q.mutable_state());
  p.release(14);
  q.release(14);

  // states() while acquired is a logic error.
  p.acquire(3);
  EXPECT_THROW(p.states(), std::logic_error);
  p.release(3);
}

TEST(Population, DeferredReleaseParksUntilTrimThenEvictsInSeqOrder) {
  PopulationSpec spec = churn_spec(100);
  spec.max_resident = 2;
  Population p(spec, convex_factory());
  for (const std::uint64_t d : {10u, 20u, 30u, 40u}) p.acquire(d);

  // Deferred releases in scrambled call order: nothing evicts mid-phase.
  p.release(30, 2);
  p.release(10, 0);
  p.release(40, 3);
  p.release(20, 1);
  EXPECT_EQ(p.resident(), 4u);
  EXPECT_EQ(p.evictions(), 0u);

  // The trim barrier evicts ascending seq: 10 (seq 0) and 20 (seq 1) go,
  // 30 and 40 stay warm.
  p.trim_warm();
  EXPECT_EQ(p.resident(), 2u);
  EXPECT_EQ(p.evictions(), 2u);
  const auto mats = p.materializations();
  p.acquire(30);
  p.acquire(40);
  EXPECT_EQ(p.materializations(), mats);  // warm hits
  p.release(30);
  p.release(40);
  p.acquire(10);
  EXPECT_EQ(p.materializations(), mats + 1);  // was evicted
  p.release(10);
}

TEST(Population, AutoSequencedReleasesEvictBeforeDeferredOnes) {
  // The two seq domains: legacy release(device) auto-sequences below every
  // caller seq, so setup-time probe releases always evict first at the
  // barrier.
  PopulationSpec spec = churn_spec(100);
  spec.max_resident = 1;
  Population p(spec, convex_factory());
  p.acquire(5);
  p.release(5);  // auto seq — the probe
  p.acquire(6);
  p.acquire(7);
  p.release(6, 0);  // caller seqs, own domain above the auto seq
  p.release(7, 1);
  p.trim_warm();
  EXPECT_EQ(p.resident(), 1u);
  EXPECT_EQ(p.evictions(), 2u);
  const auto mats = p.materializations();
  p.acquire(7);  // the highest seq survived
  EXPECT_EQ(p.materializations(), mats);
  p.release(7);
}

TEST(Population, DeferredReleaseRejectsSeqAboveDomainBase) {
  Population p(churn_spec(10), convex_factory());
  p.acquire(1);
  EXPECT_THROW(p.release(1, std::uint64_t{1} << 48), std::invalid_argument);
  p.release(1);
}

TEST(Population, ConcurrentDeferredReleasesMatchSerialEvictionExactly) {
  // The DESIGN.md §17 determinism claim: with releases parked under logical
  // seqs and eviction deferred to the trim barrier, the warm set, eviction
  // count, and materialization count after a concurrent phase equal the
  // serial run's regardless of thread interleaving.  Run under TSan via
  // `ctest -L ingest` (bench/run_ingest.sh).
  PopulationSpec spec = churn_spec(200);
  spec.max_resident = 4;

  struct Outcome {
    std::uint64_t materializations = 0;
    std::uint64_t evictions = 0;
    std::size_t resident = 0;
    util::StateMap state;
  };
  // Three phases of 12 devices each, overlapping cohorts so warm hits and
  // revivals both occur.
  const std::vector<std::vector<std::uint64_t>> cohorts = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
      {6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
      {0, 1, 2, 3, 12, 13, 14, 15, 20, 21, 22, 23},
  };
  auto run_phases = [&](bool threaded) {
    Population p(spec, convex_factory());
    std::uint64_t seq = 0;
    for (const auto& cohort : cohorts) {
      if (threaded) {
        std::vector<std::thread> workers;
        workers.reserve(cohort.size());
        for (std::size_t i = 0; i < cohort.size(); ++i) {
          workers.emplace_back([&, i] {
            auto& c = p.acquire(cohort[i]);
            c.train_local(1, 1, 0.05f);
            p.release(cohort[i], seq + i);
          });
        }
        for (auto& w : workers) w.join();
      } else {
        for (std::size_t i = 0; i < cohort.size(); ++i) {
          auto& c = p.acquire(cohort[i]);
          c.train_local(1, 1, 0.05f);
          p.release(cohort[i], seq + i);
        }
      }
      seq += cohort.size();
      p.trim_warm();
    }
    Outcome o;
    o.materializations = p.materializations();
    o.evictions = p.evictions();
    o.resident = p.resident();
    o.state = p.states();
    return o;
  };

  const Outcome serial = run_phases(false);
  const Outcome threaded = run_phases(true);
  EXPECT_EQ(threaded.materializations, serial.materializations);
  EXPECT_EQ(threaded.evictions, serial.evictions);
  EXPECT_EQ(threaded.resident, serial.resident);
  // The full sparse device-state map — which devices stayed warm, which
  // spilled, and every spilled RNG stream — is interleaving-free.
  EXPECT_EQ(threaded.state, serial.state);
  EXPECT_GT(serial.evictions, 0u);
}

TEST(Population, PeakResidentTracksCohortNotPopulation) {
  // 100k virtual devices, cohorts of 16: memory-resident client state must
  // stay proportional to the cohort, never the population.
  PopulationSpec spec;
  spec.devices = 100000;
  spec.mean_on_fraction = 0.7;
  spec.max_resident = 16;
  spec.seed = 4;
  Population p(spec, convex_factory());
  util::Rng rng(11);
  for (std::uint64_t round = 1; round <= 5; ++round) {
    const auto cohort =
        p.sample(round, 16, Selection::kAvailabilityAware, rng);
    for (const auto d : cohort) p.acquire(d);
    for (const auto d : cohort) p.release(d);
  }
  EXPECT_LE(p.peak_resident(), 32u);
  EXPECT_GE(p.materializations(), 16u);
}

}  // namespace
}  // namespace cmfl::sched
