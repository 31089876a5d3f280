// Sharded-ingest throughput benchmarks (google-benchmark): the upload
// pipeline of DESIGN.md §17 under an over-selected cohort burst.
//
// Rows:
//   * BM_ScalarInline     — the exact per-upload scalar work the runtimes
//                           screen with (finiteness scan, serial
//                           double-accumulation L2 norm) run inline on the
//                           caller thread: the single-master baseline an
//                           S-shard pipeline divides.
//   * BM_IngestBurst/S    — a 96-upload over-selected burst screened by a
//                           ShardedAggregator at S shards, results in
//                           index order; `uploads_per_s` is the headline
//                           scaling axis (≥3× at S=8 vs S=1 on a host with
//                           ≥8 cores — run_ingest.sh gates on this, and
//                           stamps `cmfl_host_cpus` so a single-core
//                           recording is never mistaken for a scaling run).
//   * BM_CommitRound/S    — the full commit cycle: scalar pass, then the
//                           range-parallel aggregate fan-out into the
//                           global update (`rounds_per_s`).
//   * BM_MeterPadded/BM_MeterPacked — the ByteMeter false-sharing micro
//                           row: T threads each hammering their own meter.
//                           Padded = the real alignas(64) ByteMeter (one
//                           cache line per meter); Packed = adjacent 8-byte
//                           atomics sharing lines, the layout ByteMeter
//                           would have without the alignment.  On a
//                           multi-core host the packed row's line ping-pong
//                           costs several × the padded rate.
//
// All pipeline rows use real time: the calling thread runs about one
// shard's share of each pass and the other shards' work happens on the
// aggregator's pool threads, so CPU time of the main thread alone would be
// meaningless.
//
// `bench/run_ingest.sh` records BENCH_ingest.json into its build directory
// from a Release build, verifies the provenance stamps and the S=8 scaling
// gate, then re-runs the `ingest`-labeled test suite under ThreadSanitizer
// and ASan+UBSan.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "net/link.h"
#include "tensor/kernels.h"
#include "util/rng.h"

using namespace cmfl;

namespace {

constexpr std::size_t kDim = 1 << 16;  // 64k params — a mid-size update
constexpr std::size_t kBurst = 96;     // over-selected cohort (1.5 × 64)

std::vector<std::vector<float>> make_burst(std::size_t count,
                                           std::size_t dim) {
  std::vector<std::vector<float>> burst(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng(1000 + i);
    burst[i].resize(dim);
    for (auto& x : burst[i]) x = rng.uniform_f(-0.5f, 0.5f);
  }
  return burst;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& burst) {
  return {burst.begin(), burst.end()};
}

/// The serial single-master scalar pass, for the baseline row.
void scalar_pass_inline(std::span<const float> u) {
  benchmark::DoNotOptimize(fl::update_all_finite(u));
  benchmark::DoNotOptimize(fl::update_l2_norm(u));
}

void BM_ScalarInline(benchmark::State& state) {
  const auto burst = make_burst(kBurst, kDim);
  for (auto _ : state) {
    for (const auto& u : burst) scalar_pass_inline(u);
  }
  state.counters["uploads_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBurst),
      benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst * kDim *
                                                    sizeof(float)));
}
BENCHMARK(BM_ScalarInline)->UseRealTime();

void BM_IngestBurst(benchmark::State& state) {
  fl::ShardOptions so;
  so.shards = static_cast<std::size_t>(state.range(0));
  fl::ShardedAggregator agg(kDim, so);
  const auto burst = make_burst(kBurst, kDim);
  const auto views = views_of(burst);
  const std::vector<std::uint64_t> wire(kBurst, kDim * sizeof(float));
  for (auto _ : state) {
    const auto results = agg.screen(views, wire);
    benchmark::DoNotOptimize(results.data());
  }
  state.counters["uploads_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBurst),
      benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst * kDim *
                                                    sizeof(float)));
}
BENCHMARK(BM_IngestBurst)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_CommitRound(benchmark::State& state) {
  fl::ShardOptions so;
  so.shards = static_cast<std::size_t>(state.range(0));
  fl::ShardedAggregator agg(kDim, so);
  const auto burst = make_burst(kBurst, kDim);
  const auto views = views_of(burst);
  const std::vector<std::uint64_t> wire(kBurst, kDim * sizeof(float));
  std::vector<float> global_update(kDim);
  const fl::RobustAggOptions ropt;
  for (auto _ : state) {
    const auto results = agg.screen(views, wire);
    for (const auto& r : results) benchmark::DoNotOptimize(r.finite);
    agg.aggregate(fl::Aggregation::kUniformMean, views, {}, ropt, {},
                  global_update);
    benchmark::DoNotOptimize(global_update.data());
  }
  state.counters["rounds_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["uploads_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBurst),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CommitRound)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// --- ByteMeter false-sharing micro row -----------------------------------
//
// benchmark_lite has no ->Threads() support, so each iteration spawns its
// own worker threads inside the timed body: T threads × kMeterOps record()
// calls each, joined before the iteration ends.  The spawn/join cost is
// identical across the padded and packed rows, so the ratio isolates the
// cache-line effect; kMeterOps is large enough that the atomic traffic
// dominates.

constexpr std::size_t kMeterThreads = 4;
constexpr std::size_t kMeterOps = 1 << 16;

void BM_MeterPadded(benchmark::State& state) {
  // One alignas(64) ByteMeter per thread: each meter owns its cache line.
  std::vector<net::ByteMeter> meters(kMeterThreads);
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(kMeterThreads);
    for (std::size_t t = 0; t < kMeterThreads; ++t) {
      workers.emplace_back([&meters, t] {
        for (std::size_t i = 0; i < kMeterOps; ++i) meters[t].record(128);
      });
    }
    for (auto& w : workers) w.join();
  }
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(kMeterThreads * kMeterOps),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeterPadded)->UseRealTime();

void BM_MeterPacked(benchmark::State& state) {
  // The layout ByteMeter would have without alignas(64): adjacent 8-byte
  // counters, eight per cache line, every increment invalidating the
  // neighbors' lines.  Two fetch_adds mirror record()'s bytes + messages.
  auto packed =
      std::make_unique<std::array<std::atomic<std::uint64_t>,
                                  kMeterThreads * 2>>();
  for (auto& a : *packed) a.store(0, std::memory_order_relaxed);
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(kMeterThreads);
    for (std::size_t t = 0; t < kMeterThreads; ++t) {
      workers.emplace_back([&packed, t] {
        auto& bytes = (*packed)[t * 2];
        auto& messages = (*packed)[t * 2 + 1];
        for (std::size_t i = 0; i < kMeterOps; ++i) {
          bytes.fetch_add(128, std::memory_order_relaxed);
          messages.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(kMeterThreads * kMeterOps),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MeterPacked)->UseRealTime();

}  // namespace

#ifndef CMFL_BUILD_TYPE
#define CMFL_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  // Same provenance stamps as bench_kernels/bench_codec, plus the host CPU
  // count: the S-scaling rows only mean anything on a host that can
  // actually run the shards concurrently, so run_ingest.sh reads
  // cmfl_host_cpus before enforcing the ≥3× gate.
  benchmark::AddCustomContext("cmfl_build_type", CMFL_BUILD_TYPE);
#ifdef NDEBUG
  benchmark::AddCustomContext("cmfl_ndebug", "1");
#else
  benchmark::AddCustomContext("cmfl_ndebug", "0");
#endif
  benchmark::AddCustomContext("cmfl_simd", tensor::kernels::simd_level());
  benchmark::AddCustomContext(
      "cmfl_host_cpus",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
