// The benchmark program: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off.  Set-up is
// timed over every operation seed of the run, three times, and the median is
// reported.  After one discarded warm-up operation the loop runs operations
// — one seeded training run to the target each — on the workload's lanes,
// cycling through the run's seeds until every seed ran once and `--seconds`
// have passed.  Counts and bytes to the target are
// exact per seed and averaged over the seeds; time to the target is the
// median over a seed's repeats, averaged over the seeds.
//
// --trace 1 alternates untraced and traced operations on the same seeds
// for `--seconds` and reports the per-layer metrics: decorated-span sums
// and percentiles, replayed codec / aggregation / estimator / frame
// timings on the uploads the traced run captured, process counters from
// the untraced operations, and the tracing overhead.
//
// Every operation passes the correctness gate in workloads.h; a failed check
// counts the operation as failed.  The last line of standard output is the
// result: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/codec.h"
#include "core/estimator.h"
#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "ledger.h"
#include "net/message.h"
#include "net/wire.h"
#include "tensor/kernels.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;
namespace kernels = cmfl::tensor::kernels;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--trace-out <file>]");
  }
  return a;
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// The kernel pool size the library will use (CMFL_THREADS or hardware).
std::size_t kernel_threads() {
  std::size_t k = kernels::max_threads();
  if (k == 0) k = kernels::env_max_threads();
  if (k == 0) k = std::max(1u, std::thread::hardware_concurrency());
  return k;
}

double elapsed_s(std::int64_t since) { return static_cast<double>(now_ns() - since) * 1e-9; }

struct Usage {
  double cpu_s = 0.0;
  long invol = 0;
  double peak_rss_mib = 0.0;
};

Usage usage_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  Usage out;
  out.cpu_s = static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
              static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  out.invol = u.ru_nivcsw;
  out.peak_rss_mib = static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
  return out;
}

/// Metrics in output order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// Runs one operation through the correctness gate; nullopt (and a line on
/// stderr) when it threw or failed a check.
struct Done {
  OpResult result;
  Checked checked;
};
std::optional<Done> run_checked(const WorkloadConfig& w, PreparedOp& op,
                                const WireSizes& sizes) {
  try {
    OpResult r = op.run();
    const Checked c = check_op(w, r, sizes);
    return Done{std::move(r), c};
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
    return std::nullopt;
  }
}

/// Runs one discarded operation so measurement starts warm, and returns the
/// wire sizes of its model for the byte reconciliation.
WireSizes warm_up(const WorkloadConfig& w, std::uint64_t run_seed) {
  return wire_sizes(w.codec, prepare_op(w, op_seed(run_seed, w.seeds), nullptr)->run().dim);
}

// ----------------------------------------------------------- untraced run

Outcome measure(const WorkloadConfig& w, const Args& args) {
  Outcome o;
  const std::size_t k_seeds = w.seeds;
  std::vector<double> setup_passes;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < k_seeds; ++k) prepare_op(w, op_seed(args.seed, k), nullptr);
    setup_passes.push_back(elapsed_s(t0));
  }
  const WireSizes sizes = warm_up(w, args.seed);

  std::mutex mu;  // guards o's counters and everything below
  std::vector<std::vector<double>> target_times(k_seeds);
  std::vector<std::optional<Checked>> first(k_seeds);
  double run_total = 0.0;
  std::uint64_t rounds_total = 0;
  std::size_t next = 0;
  const std::int64_t start = now_ns();
  // Each lane takes the next operation index until every seed ran once and
  // the time is up; lanes run operations side by side.
  const auto lane = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard lock(mu);
        if (next >= k_seeds && elapsed_s(start) >= args.seconds) return;
        i = next++;
        ++o.attempted;
      }
      const std::size_t k = i % k_seeds;
      std::optional<Done> done;
      try {
        done = run_checked(w, *prepare_op(w, op_seed(args.seed, k), nullptr), sizes);
        std::lock_guard lock(mu);
        if (!done) {
          ++o.failed;
          continue;
        }
        target_times[k].push_back(done->result.target_s);
        run_total += done->result.run_s;
        rounds_total += done->result.history.size();
        if (i < k_seeds) first[k] = done->checked;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
        std::lock_guard lock(mu);
        ++o.failed;
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t l = 1; l < w.lanes; ++l) helpers.emplace_back(lane);
    lane();
  }

  std::vector<double> ttt, rounds, uploads, up, down;
  for (std::size_t k = 0; k < k_seeds; ++k) {
    if (!target_times[k].empty()) ttt.push_back(median(target_times[k]));
    if (!first[k]) continue;
    rounds.push_back(static_cast<double>(first[k]->to_target.rounds));
    uploads.push_back(static_cast<double>(first[k]->to_target.uploads));
    up.push_back(static_cast<double>(first[k]->to_target.up_bytes));
    down.push_back(static_cast<double>(first[k]->down_bytes));
  }
  o.metrics.add("time_to_target_s", mean(ttt), "s");
  o.metrics.add("rounds_per_s", run_total > 0.0 ? rounds_total / run_total : 0.0, "1/s");
  o.metrics.add("rounds_to_target", mean(rounds), "count");
  o.metrics.add("uploads_to_target", mean(uploads), "count");
  o.metrics.add("up_bytes_to_target", mean(up), "bytes");
  o.metrics.add("down_bytes_to_target", mean(down), "bytes");
  o.metrics.add("setup_s", median(setup_passes), "s");
  o.metrics.add("peak_rss_mb", usage_now().peak_rss_mib, "MiB");
  return o;
}

// ------------------------------------------------------------- traced run

/// Per-layer sums of one traced operation.
struct LayerSums {
  double train_s = 0, install_s = 0, relevance_s = 0, eval_s = 0, materialize_s = 0;
  double train_calls = 0, eval_calls = 0;
  double self_s = 0, round_wall_s = 0;
  Phase client;  // summed over rounds
};

/// Accounts one traced operation's spans round by round and checks that
/// they reconcile with the round and run wall times.
LayerSums account(const Tracer& tracer, const OpResult& r, std::vector<double>& train_ms,
                  std::vector<double>& relevance_us, std::vector<double>& round_ms) {
  const auto& ends = tracer.round_ends();
  if (ends.size() != r.history.size()) {
    throw std::runtime_error("trace: " + std::to_string(ends.size()) +
                             " evaluations for " + std::to_string(r.history.size()) + " rounds");
  }
  LayerSums s;
  std::vector<std::vector<Interval>> by_round(ends.size());
  std::vector<std::vector<ThreadSpan>> client_by_round(ends.size());
  std::int64_t leaked_outside = 0;
  for (const Span& sp : tracer.spans()) {
    const double d = static_cast<double>(sp.end - sp.begin) * 1e-9;
    switch (sp.layer) {
      case Layer::kTrain:
        s.train_s += d;
        s.train_calls += 1;
        train_ms.push_back(d * 1e3);
        break;
      case Layer::kSetParams:
      case Layer::kGetParams: s.install_s += d; break;
      case Layer::kDecide:
        s.relevance_s += d;
        relevance_us.push_back(d * 1e6);
        break;
      case Layer::kEval:
        s.eval_s += d;
        s.eval_calls += 1;
        break;
      case Layer::kMaterialize: s.materialize_s += d; break;
    }
    if (sp.round < 1 || sp.round > ends.size()) {
      leaked_outside += sp.end - sp.begin;
      continue;
    }
    by_round[sp.round - 1].push_back({sp.begin, sp.end});
    if (sp.layer != Layer::kEval) {
      client_by_round[sp.round - 1].push_back({sp.thread, {sp.begin, sp.end}});
    }
  }

  std::int64_t wall_total = 0, leaked = leaked_outside;
  for (std::size_t i = 0; i < ends.size(); ++i) {
    const Interval window{i == 0 ? tracer.run_begin() : ends[i - 1], ends[i]};
    const RoundAccount acc = account_round(by_round[i], window);
    if (acc.covered + acc.self != acc.wall) throw std::runtime_error("trace: round accounting");
    wall_total += acc.wall;
    leaked += acc.leaked;
    s.self_s += static_cast<double>(acc.self) * 1e-9;
    round_ms.push_back(static_cast<double>(acc.wall) * 1e-6);

    const Phase phase = client_phase(client_by_round[i]);
    s.client.busy += phase.busy;
    s.client.capacity += phase.capacity;
  }
  s.round_wall_s = static_cast<double>(wall_total) * 1e-9;

  // Reconciliation tolerances: spans must sit inside their round's window
  // (≤ 1 % of round time may spill, clock-read granularity), and the round
  // windows must cover run() up to its set-up and tear-down (≤ 5 %).
  const double run_ns = r.run_s * 1e9;
  if (static_cast<double>(leaked) > 0.01 * static_cast<double>(wall_total)) {
    throw std::runtime_error("trace: " + std::to_string(leaked) +
                             " ns of spans fall outside their round");
  }
  if (std::abs(run_ns - static_cast<double>(wall_total)) > 0.05 * run_ns) {
    throw std::runtime_error("trace: round windows cover " +
                             std::to_string(static_cast<double>(wall_total) / run_ns) +
                             " of run()");
  }
  return s;
}

template <typename Fn>
double median_time_us(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(t);
}

/// Replays captured uploads through the library's codec, aggregation,
/// estimator and frame functions.
void replay(const WorkloadConfig& w, const Tracer& tracer, std::size_t dim,
            double uploads_per_round, Metrics& m) {
  const auto& ups = tracer.captured_uploads();
  if (ups.empty()) throw std::runtime_error("replay: the traced run captured no uploads");
  const std::size_t n = ups.size();
  constexpr std::size_t kReps = 3;

  auto codec = cmfl::codec::make_update_codec(w.codec, 77);
  std::vector<cmfl::codec::EncodedUpdate> encoded(n);
  const double enc_us = median_time_us(kReps * n, [&](std::size_t i) {
    encoded[i % n] = codec->encode(ups[i % n]);
  });
  double wire_bytes = 0.0;
  for (const auto& e : encoded) wire_bytes += static_cast<double>(e.wire_bytes());
  std::vector<std::vector<float>> decoded(n);
  const double dec_us = median_time_us(kReps * n, [&](std::size_t i) {
    decoded[i % n] = codec->decode(encoded[i % n].payload);
  });

  // One round's aggregation over as many captured uploads as a round saw.
  const std::size_t batch = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(uploads_per_round)), 1, n);
  std::vector<std::span<const float>> views(ups.begin(), ups.begin() + batch);
  std::vector<float> out(dim);
  double agg_us = 0.0;
  if (w.shards > 0) {
    cmfl::fl::ShardedAggregator agg(dim, cmfl::fl::ShardOptions{w.shards});
    agg_us = median_time_us(5, [&](std::size_t) {
      agg.aggregate(cmfl::fl::Aggregation::kUniformMean, views, {}, {}, {}, out);
    });
  } else {
    agg_us = median_time_us(5, [&](std::size_t) {
      cmfl::fl::aggregate_updates(cmfl::fl::Aggregation::kUniformMean, views, {}, {}, out);
    });
  }

  cmfl::core::GlobalUpdateEstimator estimator(dim);
  const double est_us = median_time_us(
      20, [&](std::size_t) { estimator.observe(tracer.captured_estimate()); });

  // The workload's upload frame: dense UpdateUpload, or a CodecUpload
  // carrying the encoded payload.
  std::vector<std::vector<std::byte>> frames(n);
  const double frame_enc_us = median_time_us(kReps * n, [&](std::size_t i) {
    const std::size_t j = i % n;
    cmfl::net::Message msg;
    if (cmfl::codec::is_dense_spec(w.codec)) {
      cmfl::net::UpdateUploadMsg up;
      up.update = ups[j];
      msg = std::move(up);
    } else {
      cmfl::net::CodecUploadMsg up;
      up.codec_id = encoded[j].codec_id;
      up.payload = encoded[j].payload;
      msg = std::move(up);
    }
    frames[j] = cmfl::net::encode(msg);
    cmfl::net::seal_frame(frames[j]);
  });
  std::vector<cmfl::net::Message> messages(n);
  const double frame_dec_us = median_time_us(kReps * n, [&](std::size_t i) {
    messages[i % n] = cmfl::net::decode(cmfl::net::open_frame(frames[i % n]));
  });

  m.add("codec.encode_us", enc_us, "us");
  m.add("codec.decode_us", dec_us, "us");
  m.add("codec.wire_bytes_per_upload", wire_bytes / static_cast<double>(n), "bytes");
  m.add("fl.aggregate_ms", agg_us * 1e-3, "ms");
  m.add("core.estimator_us", est_us, "us");
  m.add("net.frame_encode_us", frame_enc_us, "us");
  m.add("net.frame_decode_us", frame_dec_us, "us");
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  // Round spans (id r, parent 0 = the operation) then layer spans (parent =
  // their round); times in ns relative to run().
  const std::int64_t t0 = tracer.run_begin();
  std::int64_t prev = t0;
  for (std::size_t i = 0; i < tracer.round_ends().size(); ++i) {
    const std::int64_t end = tracer.round_ends()[i];
    out << "{\"name\": \"runtime.round\", \"round\": " << i + 1 << ", \"parent\": 0"
        << ", \"start_ns\": " << prev - t0 << ", \"end_ns\": " << end - t0 << "}\n";
    prev = end;
  }
  for (const Span& s : tracer.spans()) {
    out << "{\"name\": \"" << layer_name(s.layer) << "\", \"round\": " << s.round
        << ", \"parent\": " << s.round << ", \"thread\": " << s.thread
        << ", \"start_ns\": " << s.begin - t0 << ", \"end_ns\": " << s.end - t0 << "}\n";
  }
}

Outcome measure_traced(const WorkloadConfig& w, const Args& args) {
  Outcome o;
  LayerSums sum;
  std::vector<double> train_ms, relevance_us, round_ms, overhead;
  double decisions = 0, uploads = 0, traced_ops = 0, rounds = 0, history_uploads = 0;
  double upload_frames = 0, elimination_frames = 0;
  double materializations = 0, evictions = 0, peak_resident = 0, steals = 0;
  double reported = 0, invited = 0;
  double cpu_s = 0, wall_s = 0, invol = 0, plain_ops = 0;
  std::unique_ptr<Tracer> last;
  std::size_t dim = 0;

  const WireSizes sizes = warm_up(w, args.seed);
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < 2 || elapsed_s(start) < args.seconds; ++i) {
    const std::uint64_t seed = op_seed(args.seed, i % w.seeds);
    std::unique_ptr<PreparedOp> plain = prepare_op(w, seed, nullptr);
    const Usage before = usage_now();
    auto base = run_checked(w, *plain, sizes);
    const Usage after = usage_now();
    plain.reset();

    auto tracer = std::make_unique<Tracer>(32);
    std::unique_ptr<PreparedOp> traced = prepare_op(w, seed, tracer.get());
    auto done = run_checked(w, *traced, sizes);
    traced.reset();
    o.attempted += 2;
    o.failed += (base ? 0 : 1) + (done ? 0 : 1);
    if (!base || !done) continue;
    try {
      const LayerSums s = account(*tracer, done->result, train_ms, relevance_us, round_ms);
      sum.train_s += s.train_s;
      sum.install_s += s.install_s;
      sum.relevance_s += s.relevance_s;
      sum.eval_s += s.eval_s;
      sum.materialize_s += s.materialize_s;
      sum.train_calls += s.train_calls;
      sum.eval_calls += s.eval_calls;
      sum.self_s += s.self_s;
      sum.round_wall_s += s.round_wall_s;
      sum.client.busy += s.client.busy;
      sum.client.capacity += s.client.capacity;
    } catch (const std::exception& e) {
      ++o.failed;
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      continue;
    }
    const OpResult& r = done->result;
    plain_ops += 1;
    cpu_s += after.cpu_s - before.cpu_s;
    wall_s += base->result.run_s;
    invol += static_cast<double>(after.invol - before.invol);
    overhead.push_back(r.run_s / base->result.run_s);
    traced_ops += 1;
    decisions += static_cast<double>(tracer->decisions());
    uploads += static_cast<double>(tracer->uploads());
    rounds += static_cast<double>(r.history.size());
    for (const auto& rec : r.history) history_uploads += static_cast<double>(rec.uploads);
    upload_frames += static_cast<double>(r.upload_frames);
    elimination_frames += static_cast<double>(r.elimination_frames);
    materializations += static_cast<double>(r.sched.materializations);
    evictions += static_cast<double>(r.sched.evictions);
    peak_resident += static_cast<double>(r.sched.peak_resident_clients);
    steals += static_cast<double>(r.sched.steals);
    reported += static_cast<double>(r.sched.reported);
    invited += static_cast<double>(r.sched.invited);
    dim = r.dim;
    last = std::move(tracer);
  }
  if (!last) throw std::runtime_error("no traced operation passed its checks");
  if (!args.trace_out.empty()) write_spans(args.trace_out, *last);

  const auto per_op = [&](double v) { return v / traced_ops; };
  Metrics& m = o.metrics;
  m.add("nn.train_s", per_op(sum.train_s), "s");
  m.add("nn.train_ms_p50", percentile(train_ms, 50), "ms");
  m.add("nn.train_ms_p90", percentile(train_ms, 90), "ms");
  m.add("nn.train_calls", per_op(sum.train_calls), "count");
  m.add("fl.install_s", per_op(sum.install_s), "s");
  m.add("core.relevance_s", per_op(sum.relevance_s), "s");
  m.add("core.relevance_us_p50", percentile(relevance_us, 50), "us");
  m.add("core.upload_ratio", decisions > 0 ? uploads / decisions : 0.0, "ratio");
  replay(w, *last, dim, history_uploads / rounds, m);
  m.add("net.upload_frames", per_op(upload_frames), "count");
  m.add("net.elimination_frames", per_op(elimination_frames), "count");
  m.add("fl.eval_s", per_op(sum.eval_s), "s");
  m.add("fl.eval_calls", per_op(sum.eval_calls), "count");
  m.add("sched.materialize_s", per_op(sum.materialize_s), "s");
  m.add("sched.materializations", per_op(materializations), "count");
  m.add("sched.evictions", per_op(evictions), "count");
  m.add("sched.peak_resident", per_op(peak_resident), "count");
  m.add("sched.report_ratio", invited > 0 ? reported / invited : 0.0, "ratio");
  m.add("sched.steals", per_op(steals), "count");
  m.add("runtime.round_ms_p50", percentile(round_ms, 50), "ms");
  m.add("runtime.round_ms_p90", percentile(round_ms, 90), "ms");
  m.add("runtime.self_s", per_op(sum.self_s), "s");
  m.add("runtime.train_idle_share", idle_share(sum.client), "ratio");
  m.add("proc.cpu_s", cpu_s / plain_ops, "s");
  m.add("proc.cpu_per_wall", wall_s > 0 ? cpu_s / wall_s : 0.0, "ratio");
  m.add("proc.invol_ctx_switches", invol / plain_ops, "count");
  m.add("trace.overhead_ratio", median(overhead), "ratio");

  // Layer shares of round wall time, for the workload notes (busy time can
  // exceed the wall on multi-threaded layers).
  const double wall = sum.round_wall_s;
  std::printf(
      "layer shares of round wall time: train %.3f, install %.3f, relevance %.3f, "
      "materialize %.3f, eval %.3f, runtime self %.3f\n",
      sum.train_s / wall, sum.install_s / wall, sum.relevance_s / wall,
      sum.materialize_s / wall, sum.eval_s / wall, sum.self_s / wall);
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const WorkloadConfig* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const std::size_t nproc = host_cpus();
  const std::size_t kthreads = kernel_threads();
  const std::size_t runnable = runnable_threads(*w, kthreads);
  const char* env_threads = std::getenv("CMFL_THREADS");
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "stamp: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"nproc\": %zu, "
      "\"hardware_concurrency\": %u, \"build_type\": %s, \"kernel_tier\": %s, "
      "\"simd_level\": %s, \"cmfl_threads\": %s, \"kernel_threads\": %zu, "
      "\"shards\": %zu, \"workers\": %zu, \"lanes\": %zu, \"runtime_pool\": %s, "
      "\"runnable_threads\": %zu, \"commit\": %s}\n",
      json_string(w->name).c_str(), static_cast<unsigned long long>(args.seed), args.trace,
      nproc, std::thread::hardware_concurrency(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      kernels::active_tier() == kernels::Tier::kFast ? "\"fast\"" : "\"exact\"",
      json_string(kernels::simd_level()).c_str(),
      json_string(env_threads ? env_threads : "unset").c_str(), kthreads, w->shards,
      w->workers, w->lanes, w->parallel ? "true" : "false", runnable,
      json_string(commit ? commit : "unknown").c_str());
  if (runnable > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing to run %s: it is configured with %zu runnable "
                 "threads on a host with %zu CPUs (set CMFL_THREADS=1 to keep the kernel "
                 "pool off)\n",
                 w->name.c_str(), runnable, nproc);
    return 3;
  }
  std::fflush(stdout);

  Outcome o;
  try {
    o = args.trace ? measure_traced(*w, args) : measure(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              o.failed == 0 ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), o.metrics.json().c_str());
  return 0;
}
