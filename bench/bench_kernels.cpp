// Kernel-layer throughput benchmarks (google-benchmark): old vs new paths.
//
// GEMM benchmarks report GFLOP/s (2·m·n·k flops per product); sign-match
// benchmarks report GB/s over the two float vectors scanned per check.  The
// *_Ref variants run the naive seed kernels kept in kernels.cpp, so a single
// run shows the old-vs-new ratio directly.  `bench/run_kernels.sh` records
// BENCH_kernels.json in its build directory and prints the `cp` that updates
// the tracked baseline at the repo root; later changes compare against it
// before touching a kernel.
//
// Tier rows (DESIGN.md §13): un-suffixed benchmarks pin Tier::kExact and one
// worker, so the tracked baseline stays the bit-exact single-threaded
// kernels.  *_Fast rows pin Tier::kFast (AVX2/FMA; absent hosts silently
// fall back to kExact — check the cmfl_simd context stamp).  *MT rows sweep
// the worker count via ->Arg(threads) at a fixed 256³ GEMM so one JSON holds
// the single- and multi-threaded roofline; they divide by wall time
// (UseRealTime), since the pool's workers burn CPU time the main thread's
// clock never sees.  BM_Crc32_Ref/BM_Crc32 report the frame seal's GB/s:
// the table loop against the dispatched path (the PCLMULQDQ fold, or the
// same table loop on CPUs without it).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/vector_ops.h"
#include "util/crc32.h"
#include "util/rng.h"

using namespace cmfl;

namespace {

/// Pins (tier, worker count) for one benchmark body and restores the auto
/// defaults after, so rows never leak configuration into each other.
struct KernelEnv {
  KernelEnv(tensor::kernels::Tier t, std::size_t threads) {
    tensor::kernels::set_tier(t);
    tensor::kernels::set_max_threads(threads);
  }
  ~KernelEnv() {
    tensor::kernels::set_tier(tensor::kernels::Tier::kAuto);
    tensor::kernels::set_max_threads(0);
  }
};

constexpr auto kExact = tensor::kernels::Tier::kExact;
constexpr auto kFast = tensor::kernels::Tier::kFast;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform_f(-1.0f, 1.0f);
  return v;
}

void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t k,
                       std::size_t n) {
  const double flops_per_iter = 2.0 * static_cast<double>(m) *
                                static_cast<double>(k) *
                                static_cast<double>(n);
  state.counters["GFLOPS"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

// --- GEMM: C = A·B, square sizes ---

void BM_GemmNN_Ref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 1), b = random_vec(n * n, 2);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    tensor::kernels::gemm_nn_ref(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNN_Ref)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNN(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n, random_vec(n * n, 1));
  tensor::Matrix b(n, n, random_vec(n * n, 2));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNN_Fast(benchmark::State& state) {
  KernelEnv env(kFast, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n, random_vec(n * n, 1));
  tensor::Matrix b(n, n, random_vec(n * n, 2));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNN_Fast)->Arg(64)->Arg(128)->Arg(256);

// Multi-threaded roofline rows: fixed 256³ product, worker count in the
// benchmark argument.  256³ MACs exceed kParallelMacThreshold, so matmul
// shards rows across the pinned pool.
void BM_GemmNN_MT(benchmark::State& state) {
  KernelEnv env(kExact, static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 256;
  tensor::Matrix a(n, n, random_vec(n * n, 1));
  tensor::Matrix b(n, n, random_vec(n * n, 2));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNN_MT)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_GemmNN_FastMT(benchmark::State& state) {
  KernelEnv env(kFast, static_cast<std::size_t>(state.range(0)));
  const std::size_t n = 256;
  tensor::Matrix a(n, n, random_vec(n * n, 1));
  tensor::Matrix b(n, n, random_vec(n * n, 2));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNN_FastMT)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_GemmNT_Ref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 3), b = random_vec(n * n, 4);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    tensor::kernels::gemm_nt_ref(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNT_Ref)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n, random_vec(n * n, 3));
  tensor::Matrix b(n, n, random_vec(n * n, 4));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul_nt(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNT)->Arg(256);

void BM_GemmNT_Fast(benchmark::State& state) {
  KernelEnv env(kFast, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n, random_vec(n * n, 3));
  tensor::Matrix b(n, n, random_vec(n * n, 4));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul_nt(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmNT_Fast)->Arg(256);

void BM_GemmTN_Ref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vec(n * n, 5), b = random_vec(n * n, 6);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    tensor::kernels::gemm_tn_ref(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTN_Ref)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n, random_vec(n * n, 5));
  tensor::Matrix b(n, n, random_vec(n * n, 6));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul_tn(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTN)->Arg(256);

void BM_GemmTN_Fast(benchmark::State& state) {
  KernelEnv env(kFast, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n, random_vec(n * n, 5));
  tensor::Matrix b(n, n, random_vec(n * n, 6));
  tensor::Matrix c(n, n);
  for (auto _ : state) {
    tensor::matmul_tn(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  set_gemm_counters(state, n, n, n);
}
BENCHMARK(BM_GemmTN_Fast)->Arg(256);

// --- Sign agreement: scalar scan vs bit-packed popcount ---

void BM_SignMatchScalar(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto u = random_vec(d, 7), g = random_vec(d, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::count_sign_matches(u, g));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * d * sizeof(float)));
}
BENCHMARK(BM_SignMatchScalar)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

// The server-side steady state: ū packed once per broadcast, each client
// packs only its own update chunk-wise while matching (mixed overload).
void BM_SignMatchPackedVsFloat(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto u = random_vec(d, 7), g = random_vec(d, 8);
  const tensor::SignPack gp(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::count_sign_matches(u, gp));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * d * sizeof(float)));
}
BENCHMARK(BM_SignMatchPackedVsFloat)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_SignMatchPackedVsFloat_Fast(benchmark::State& state) {
  KernelEnv env(kFast, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto u = random_vec(d, 7), g = random_vec(d, 8);
  const tensor::SignPack gp(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::count_sign_matches(u, gp));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * d * sizeof(float)));
}
BENCHMARK(BM_SignMatchPackedVsFloat_Fast)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Arg(1 << 20);

// Both sides pre-packed: pure XOR/AND + popcount over 64-bit words.
void BM_SignMatchPackedVsPacked(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  const tensor::SignPack up(random_vec(d, 7));
  const tensor::SignPack gp(random_vec(d, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::count_sign_matches(up, gp));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * d * sizeof(float)));
}
BENCHMARK(BM_SignMatchPackedVsPacked)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_SignPackAssign(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto g = random_vec(d, 8);
  tensor::SignPack pack;
  for (auto _ : state) {
    pack.assign(g);
    benchmark::DoNotOptimize(pack.nonzero_words().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d * sizeof(float)));
}
BENCHMARK(BM_SignPackAssign)->Arg(1 << 20);

void BM_SignPackAssign_Fast(benchmark::State& state) {
  KernelEnv env(kFast, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto g = random_vec(d, 8);
  tensor::SignPack pack;
  for (auto _ : state) {
    pack.assign(g);
    benchmark::DoNotOptimize(pack.nonzero_words().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d * sizeof(float)));
}
BENCHMARK(BM_SignPackAssign_Fast)->Arg(1 << 20);

// --- Fused server aggregation ---

void BM_AggregateScaledSum(benchmark::State& state) {
  KernelEnv env(kExact, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kClients = 16;
  std::vector<std::vector<float>> updates;
  updates.reserve(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    updates.push_back(random_vec(d, 100 + k));
  }
  std::vector<std::span<const float>> views(updates.begin(), updates.end());
  std::vector<float> out(d);
  for (auto _ : state) {
    tensor::kernels::scaled_sum(views, 1.0f / kClients, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kClients * d * sizeof(float)));
}
BENCHMARK(BM_AggregateScaledSum)->Arg(1 << 17);

void BM_AggregateScaledSum_Fast(benchmark::State& state) {
  KernelEnv env(kFast, 1);
  const auto d = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kClients = 16;
  std::vector<std::vector<float>> updates;
  updates.reserve(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    updates.push_back(random_vec(d, 100 + k));
  }
  std::vector<std::span<const float>> views(updates.begin(), updates.end());
  std::vector<float> out(d);
  for (auto _ : state) {
    tensor::kernels::scaled_sum(views, 1.0f / kClients, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kClients * d * sizeof(float)));
}
BENCHMARK(BM_AggregateScaledSum_Fast)->Arg(1 << 17);

void BM_AggregateAxpyThenScale(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kClients = 16;
  std::vector<std::vector<float>> updates;
  updates.reserve(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    updates.push_back(random_vec(d, 100 + k));
  }
  std::vector<float> out(d);
  for (auto _ : state) {
    tensor::fill(out, 0.0f);
    for (const auto& u : updates) tensor::axpy(1.0f, u, out);
    tensor::scale(out, 1.0f / kClients);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kClients * d * sizeof(float)));
}
BENCHMARK(BM_AggregateAxpyThenScale)->Arg(1 << 17);

// --- CRC-32 over one sealed frame's bytes ---

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_u64() & 0xFFu);
  return v;
}

void crc32_rows(benchmark::State& state,
                std::uint32_t (*crc)(std::span<const std::byte>) noexcept) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bytes = random_bytes(n, 11);
  for ([[maybe_unused]] auto _ : state) benchmark::DoNotOptimize(crc(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Crc32_Ref(benchmark::State& state) {
  crc32_rows(state, util::crc32_ref);
}
BENCHMARK(BM_Crc32_Ref)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) { crc32_rows(state, util::crc32); }
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

}  // namespace

#ifndef CMFL_BUILD_TYPE
#define CMFL_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  // library_build_type in the JSON describes how *libbenchmark* was
  // compiled (always "debug" for the distro package); the tracked baseline
  // is gated on this binary's own build type instead (run_kernels.sh).
  benchmark::AddCustomContext("cmfl_build_type", CMFL_BUILD_TYPE);
#ifdef NDEBUG
  benchmark::AddCustomContext("cmfl_ndebug", "1");
#else
  benchmark::AddCustomContext("cmfl_ndebug", "0");
#endif
  // SIMD provenance: "avx2-fma" when the fast tier ran, "scalar" when the
  // *_Fast rows silently fell back to the exact kernels on this host.
  benchmark::AddCustomContext("cmfl_simd", tensor::kernels::simd_level());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
