#include "net/replicated_master.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "fl/checkpoint.h"
#include "fl/round_commit.h"
#include "net/raft.h"
#include "net/worker.h"

namespace cmfl::net {
namespace {

// ------------------------------------------------------------ log commands
//
// The replicated state machine's command set.  Every apply is idempotent —
// a leadership change can re-propose a command a deposed leader already got
// committed, and the second copy must be a no-op.

enum class Cmd : std::uint8_t {
  kRoundStart = 1,    // open round t, account the broadcast
  kReply = 2,         // one accepted worker reply (upload or elimination)
  kRoundCommit = 3,   // aggregate round t and close it
  kClientStates = 4,  // quiesced per-worker state blobs -> checkpoint files
  kWorkerCrash = 5,   // a worker exhausted its retransmit budget
  kFinish = 6,        // the run is over
};

void write_bytes(WireWriter& w, std::span<const std::byte> data) {
  w.u64(data.size());
  for (const std::byte b : data) w.u8(static_cast<std::uint8_t>(b));
}

std::vector<std::byte> encode_round_start(std::uint64_t t,
                                          std::uint64_t broadcast_bytes) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Cmd::kRoundStart));
  w.u64(t);
  w.u64(broadcast_bytes);
  return w.take();
}

/// Worker `worker`'s reply to round `round`; its wire_bytes is the physical
/// size of the reply frame.
std::vector<std::byte> encode_reply(std::uint64_t round, std::uint32_t worker,
                                    const RoundLedger::Answer& a) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Cmd::kReply));
  w.u64(round);
  w.u32(worker);
  w.u8(a.upload ? 1 : 0);
  w.f64(a.score);
  w.u64(a.wire_bytes);
  w.floats(a.update);
  return w.take();
}

std::vector<std::byte> encode_round_commit(std::uint64_t t) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Cmd::kRoundCommit));
  w.u64(t);
  return w.take();
}

std::vector<std::byte> encode_client_states(
    std::uint64_t t, const std::vector<std::vector<std::uint64_t>>& states,
    const std::vector<std::vector<std::uint64_t>>& codec_states) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Cmd::kClientStates));
  w.u64(t);
  w.u32(static_cast<std::uint32_t>(states.size()));
  for (const auto& s : states) {
    w.u64(s.size());
    for (const std::uint64_t word : s) w.u64(word);
  }
  // Worker codec state rides the same quiesced proposal: both are read
  // under the identical happens-before argument (every round-t reply
  // applied), so they describe the same logical instant.
  w.u32(static_cast<std::uint32_t>(codec_states.size()));
  for (const auto& s : codec_states) {
    w.u64(s.size());
    for (const std::uint64_t word : s) w.u64(word);
  }
  return w.take();
}

std::vector<std::byte> encode_worker_crash(std::uint64_t t,
                                           std::uint32_t worker) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Cmd::kWorkerCrash));
  w.u64(t);
  w.u32(worker);
  return w.take();
}

std::vector<std::byte> encode_finish() {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(Cmd::kFinish));
  return w.take();
}

// --------------------------------------------------------------- shared ctx

struct Replica;

/// Everything the replica threads share.  Mutable members are atomics or
/// externally synchronized (channels, the eval and error mutexes).
struct Shared {
  const ClusterOptions* options = nullptr;
  std::size_t num_workers = 0;
  const fl::GlobalEvaluator* evaluator = nullptr;
  std::mutex eval_mutex;  // the evaluator is shared by all replicas

  std::vector<std::unique_ptr<Replica>>* replicas = nullptr;
  // Uploads are decoded by each replica's own Replica::decoder, never by
  // the workers' codecs.
  WorkerGroup* workers = nullptr;

  ByteMeter* downlink_meter = nullptr;
  ByteMeter* control_meter = nullptr;
  FaultStats* fault_stats = nullptr;

  std::atomic<std::uint64_t> master_corrupt{0};
  std::atomic<std::uint64_t> master_redundant{0};
  std::atomic<std::uint64_t> master_retransmits{0};
  std::atomic<std::uint64_t> timed_out_rounds{0};
  std::atomic<std::uint64_t> leader_redirects{0};
  std::atomic<std::uint64_t> leader_crashes{0};
  std::atomic<std::uint64_t> replica_restarts{0};
  std::atomic<std::uint64_t> restart_load_errors{0};

  // The first exception a replica thread raised; it ends the run and is
  // rethrown once every thread has been joined.
  std::mutex error_mutex;
  std::exception_ptr error;

  // One flag per FaultPlan::leader_crash / replica_restart entry: each
  // entry fires once.
  std::unique_ptr<std::atomic<bool>[]> crash_fired;
  std::unique_ptr<std::atomic<bool>[]> restart_fired;
  std::unique_ptr<std::atomic<bool>[]> replica_crashed;

  // Rebuild inputs for crash-restart: what a fresh StateMachine starts from
  // before the recovered snapshot is applied on top.
  const std::vector<float>* initial_global = nullptr;
  const fl::TrainerCheckpoint* resume_from = nullptr;

  std::atomic<bool> done{false};
  std::atomic<int> finished_replica{-1};
};

// ------------------------------------------------------ the state machine
//
// One copy per replica, advanced ONLY by applying committed log entries, so
// every replica's copy walks through the identical sequence of states.  The
// open round lives in a net::RoundLedger, as on the single master; the
// frame counters here are *logical* (exactly once per accepted frame).

struct StateMachine {
  StateMachine(const ClusterOptions& opt, std::size_t n,
               std::vector<float> initial_global)
      : committer(opt.fl, n, std::move(initial_global)), ledger(n) {}

  // Closed-round trainer state and the open round.
  fl::RoundCommitter committer;
  RoundLedger ledger;

  // Logical frame counters (replicated); the uplink's bytes are Φ's.
  std::uint64_t down_bytes = 0;
  std::uint64_t down_msgs = 0;
  std::uint64_t upload_frames = 0;
  std::uint64_t elimination_frames = 0;

  std::uint64_t quorum_rounds = 0;  // rounds a worker crashed out of
  std::uint64_t states_round = 0;  // last round whose ClientStates applied
  bool stop = false;               // target accuracy reached
  bool finished = false;

  void apply(std::span<const std::byte> command, Shared& sh,
             std::uint32_t replica_id);
  std::vector<std::byte> snapshot_blob() const;
  void restore_snapshot(std::span<const std::byte> blob);
  void restore_checkpoint(const fl::TrainerCheckpoint& ck);
  fl::TrainerCheckpoint build_checkpoint(
      std::vector<std::vector<std::uint64_t>> client_states,
      std::vector<std::vector<std::uint64_t>> codec_states) const;

 private:
  void apply_round_commit(std::uint64_t t, Shared& sh);
  void apply_client_states(std::uint64_t t,
                           std::vector<std::vector<std::uint64_t>> states,
                           std::vector<std::vector<std::uint64_t>> codec_states,
                           Shared& sh, std::uint32_t replica_id);
};

void StateMachine::apply_round_commit(std::uint64_t t, Shared& sh) {
  if (!ledger.is_open() || t != ledger.round()) return;
  if (ledger.missed()) ++quorum_rounds;  // a worker crashed out of it
  const fl::RoundOutcome outcome = ledger.close(
      committer,
      [&sh](std::span<const float> params) {
        // The evaluator is shared by all replicas.
        std::lock_guard<std::mutex> lock(sh.eval_mutex);
        return (*sh.evaluator)(params);
      },
      sh.workers->local_samples(), *sh.options);
  if (outcome.stop) stop = true;
}

void StateMachine::apply_client_states(
    std::uint64_t t, std::vector<std::vector<std::uint64_t>> states,
    std::vector<std::vector<std::uint64_t>> codec_states, Shared& sh,
    std::uint32_t replica_id) {
  if (ledger.is_open() || t != ledger.round() || states_round >= t) return;
  states_round = t;
  const std::string& path = sh.options->fl.checkpoint_path;
  if (path.empty()) return;
  fl::save_checkpoint_file(
      path + ".replica" + std::to_string(replica_id),
      build_checkpoint(std::move(states), std::move(codec_states)));
}

void StateMachine::apply(std::span<const std::byte> command, Shared& sh,
                         std::uint32_t replica_id) {
  WireReader r(command);
  const auto cmd = static_cast<Cmd>(r.u8());
  switch (cmd) {
    case Cmd::kRoundStart: {
      const std::uint64_t t = r.u64();
      const std::uint64_t bytes = r.u64();
      if (ledger.is_open() || t != ledger.round() + 1) return;  // duplicate
      const std::size_t invited = ledger.open(t, committer, bytes);
      down_bytes += invited * bytes;
      down_msgs += invited;
      return;
    }
    case Cmd::kReply: {
      const std::uint64_t round = r.u64();
      const std::uint32_t worker = r.u32();
      // Braced initializers run in order: the fields as encode_reply wrote.
      RoundLedger::Answer a{.upload = r.u8() != 0,
                            .score = r.f64(),
                            .wire_bytes = r.u64(),
                            .update = r.floats()};
      const bool upload = a.upload;
      // A stale re-proposal or a duplicate changes nothing.
      if (ledger.accept(round, worker, std::move(a))) {
        ++(upload ? upload_frames : elimination_frames);
      }
      return;
    }
    case Cmd::kRoundCommit:
      apply_round_commit(r.u64(), sh);
      return;
    case Cmd::kClientStates: {
      const std::uint64_t t = r.u64();
      const auto read_blobs = [&r](std::uint32_t n) {
        // Each blob needs at least its 8-byte length: bound n before
        // allocating.
        if (n > r.remaining() / sizeof(std::uint64_t)) {
          throw std::runtime_error("ClientStates: blob count exceeds command");
        }
        std::vector<std::vector<std::uint64_t>> blobs(n);
        for (auto& s : blobs) {
          const std::uint64_t words = r.u64();
          if (words > r.remaining() / sizeof(std::uint64_t)) {
            throw std::runtime_error("ClientStates: blob exceeds command");
          }
          s.resize(words);
          for (auto& word : s) word = r.u64();
        }
        return blobs;
      };
      auto states = read_blobs(r.u32());
      auto codec_states = read_blobs(r.u32());
      apply_client_states(t, std::move(states), std::move(codec_states), sh,
                          replica_id);
      return;
    }
    case Cmd::kWorkerCrash: {
      r.u64();  // the round the leader saw the worker miss
      // A worker that awaited the open round leaves it: the round completes
      // without it.
      ledger.crash(r.u32());
      return;
    }
    case Cmd::kFinish:
      finished = true;
      return;
  }
  throw std::runtime_error("replicated master: unknown log command");
}

fl::TrainerCheckpoint StateMachine::build_checkpoint(
    std::vector<std::vector<std::uint64_t>> client_states,
    std::vector<std::vector<std::uint64_t>> codec_states) const {
  fl::TrainerCheckpoint ck = committer.checkpoint(ledger.round());
  ck.client_state = std::move(client_states);
  ck.compressor_state = std::move(codec_states);
  fl::ClusterMeterState& m = ck.meters;
  // Logical counters, zero retransmissions: a replicated checkpoint records
  // the reproducible footprint, not one process's physical recovery traffic.
  m.uplink_bytes = ck.uploaded_bytes;
  m.uplink_messages = upload_frames + elimination_frames;
  m.downlink_bytes = down_bytes;
  m.downlink_messages = down_msgs;
  m.upload_messages = upload_frames;
  m.elimination_messages = elimination_frames;
  m.simulated_transfer_seconds = ledger.transfer_seconds();
  return ck;
}

void StateMachine::restore_checkpoint(const fl::TrainerCheckpoint& ck) {
  committer.restore(ck);
  const fl::ClusterMeterState& m = ck.meters;
  ledger.resume(ck.iteration, m.simulated_transfer_seconds);
  down_bytes = m.downlink_bytes;
  down_msgs = m.downlink_messages;
  upload_frames = m.upload_messages;
  elimination_frames = m.elimination_messages;
  states_round = ck.iteration;
}

std::vector<std::byte> StateMachine::snapshot_blob() const {
  // Snapshots are cut only at RoundCommit boundaries, so there is never an
  // open round to serialize.
  WireWriter w;
  w.u8(stop ? 1 : 0);
  w.u8(finished ? 1 : 0);
  w.u64(states_round);
  w.u64(quorum_rounds);
  const std::vector<std::uint64_t> words = ledger.state_words();
  w.u64(words.size());
  for (const std::uint64_t word : words) w.u64(word);
  write_bytes(w, fl::encode_checkpoint(build_checkpoint({}, {})));
  return w.take();
}

void StateMachine::restore_snapshot(std::span<const std::byte> blob) {
  WireReader r(blob);
  const bool snap_stop = r.u8() != 0;
  const bool snap_finished = r.u8() != 0;
  const std::uint64_t snap_states_round = r.u64();
  const std::uint64_t snap_quorum = r.u64();
  const std::uint64_t word_count = r.u64();
  if (word_count > r.remaining() / sizeof(std::uint64_t)) {
    throw std::runtime_error("snapshot: ledger words exceed the snapshot");
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>(word_count));
  for (auto& word : words) word = r.u64();
  const std::uint64_t ck_size = r.u64();
  if (ck_size > r.remaining()) {
    throw std::runtime_error("snapshot: truncated checkpoint payload");
  }
  std::vector<std::byte> payload(ck_size);
  for (auto& b : payload) b = static_cast<std::byte>(r.u8());

  restore_checkpoint(fl::decode_checkpoint(payload));
  ledger.restore_state_words(words);
  states_round = snap_states_round;
  stop = snap_stop;
  finished = snap_finished;
  quorum_rounds = snap_quorum;
}

// ------------------------------------------------------------ the replicas

/// What a dying replica does next: plain crash-stop (restart == false, the
/// leader_crash behavior) or crash-restart after delay_ms, optionally with a
/// storage fault applied to its WAL while it is down.
struct CrashEvent {
  bool restart = false;
  double delay_ms = 0.0;
  StorageFault wal_fault = StorageFault::kNone;
};

struct Replica {
  Replica(std::uint32_t rid, const RaftConfig& rc, StateMachine machine,
          std::unique_ptr<RaftStorage> st = nullptr)
      : id(rid),
        storage(std::move(st)),  // must precede node: node borrows it
        node(rc, storage.get()),
        sm(std::move(machine)) {}

  std::uint32_t id;
  std::unique_ptr<RaftStorage> storage;  // null: in-memory crash-stop replica
  RaftNode node;
  Channel inbox;  // Raft frames from peers + data frames from workers
  StateMachine sm;
  // This replica's private payload decoder (stateless-decode codecs only,
  // so decoding needs no coordination with other replicas or the encoder).
  std::unique_ptr<codec::UpdateCodec> decoder;

  // Folded in from pre-restart incarnations by this replica's own thread
  // (before the next incarnation starts), read by the main thread after
  // join — no synchronization needed beyond the join itself.
  RaftCounters retired_raft;
  RaftStorageCounters retired_storage;
  CrashEvent crash_event;
};

RaftConfig make_raft_config(const ClusterOptions& options, std::uint32_t r) {
  RaftConfig rc;
  rc.id = r;
  rc.cluster_size = static_cast<std::uint32_t>(options.replication.replicas);
  rc.seed = options.replication.seed;
  rc.heartbeat_ticks = options.replication.heartbeat_ticks;
  rc.election_timeout_min_ticks =
      options.replication.election_timeout_min_ticks;
  rc.election_timeout_max_ticks =
      options.replication.election_timeout_max_ticks;
  rc.pre_vote = options.replication.pre_vote;
  return rc;
}

std::string replica_storage_dir(const ClusterOptions& options,
                                std::uint32_t r) {
  return options.replication.storage_dir + "/replica" + std::to_string(r);
}

/// Volatile (non-replicated) leader bookkeeping.  Reset whenever this
/// replica (re)gains leadership — the replicated state is the only carrier
/// of round progress across leadership changes.
struct Driver {
  bool leading = false;
  std::uint64_t term = 0;
  std::uint64_t started_round = 0;  // rounds whose RoundStart *we* proposed
  std::uint64_t bcast_round = 0;    // round our broadcasts currently target
  int attempt = 0;
  Clock::time_point deadline{};
  std::uint64_t proposed_commit = 0;
  std::uint64_t proposed_states = 0;
  bool proposed_finish = false;
  std::vector<char> proposed_reply;  // per worker, current round
  std::vector<char> proposed_crash;
  std::uint64_t accepted = 0;  // replies accepted under this leadership
  std::uint64_t frame_round = 0;  // the round `frame` broadcasts
  std::vector<std::byte> frame;   // our sealed broadcast of frame_round
  util::Rng jitter{0};
  std::optional<Clock::time_point> finish_deadline;
};

/// True when `self` (non-partitioned, working round inside the window) must
/// cut the control-plane link to/from `other`.
bool partition_blocks(const Shared& sh, const Replica& self,
                      std::uint32_t other) {
  if (other == self.id) return false;
  const auto& map = sh.options->fault.replica_partition;
  if (map.count(self.id) != 0) return false;  // partitioned: cannot enforce
  const auto it = map.find(other);
  if (it == map.end()) return false;
  return self.sm.ledger.round() >= it->second.from_round &&
         self.sm.ledger.round() <= it->second.to_round;
}

/// Drains the node's outputs: outbox frames to peers, committed entries into
/// the state machine (compacting at every round commit), and any snapshot a
/// leader installed over us.  Must run after every step()/tick()/propose()
/// batch so a snapshot installation can never interleave wrongly with
/// entry application.
void pump(Replica& self, Shared& sh) {
  for (auto& send : self.node.take_outbox()) {
    if (partition_blocks(sh, self, send.to)) continue;
    if (sh.replica_crashed[send.to].load(std::memory_order_relaxed)) continue;
    auto frame = encode_raft(send.msg);
    seal_frame(frame);
    sh.control_meter->record(frame.size());
    (*sh.replicas)[send.to]->inbox.send(std::move(frame));
  }
  if (const auto snap = self.node.take_installed_snapshot()) {
    self.sm.restore_snapshot(snap->data);
  }
  for (auto& c : self.node.take_committed()) {
    const bool is_commit =
        static_cast<Cmd>(std::to_integer<std::uint8_t>(c.command[0])) ==
        Cmd::kRoundCommit;
    self.sm.apply(c.command, sh, self.id);
    if (is_commit) {
      // Compact at every closed round: the log never outgrows one round,
      // and a partitioned replica is caught back up by snapshot transfer.
      self.node.compact(c.index, self.sm.snapshot_blob());
    }
  }
}

/// Fires any leader-crash schedule entry matching the open round once the
/// leader has accepted enough replies.  Returns true when this replica must
/// die (silently, mid-flight: queued proposals in the outbox die with it).
bool maybe_crash(Replica& self, Shared& sh, const Driver& drv) {
  if (!self.sm.ledger.is_open()) return false;
  const auto& schedule = sh.options->fault.leader_crash;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].round != self.sm.ledger.round()) continue;
    if (drv.accepted < schedule[i].after_replies) continue;
    if (sh.crash_fired[i].exchange(true)) continue;  // already fired
    sh.leader_crashes.fetch_add(1, std::memory_order_relaxed);
    sh.replica_crashed[self.id].store(true, std::memory_order_release);
    self.crash_event = CrashEvent{};  // crash-stop: stays dead
    return true;
  }
  const auto& restarts = sh.options->fault.replica_restart;
  for (std::size_t i = 0; i < restarts.size(); ++i) {
    if (restarts[i].round != self.sm.ledger.round()) continue;
    if (drv.accepted < restarts[i].after_replies) continue;
    if (sh.restart_fired[i].exchange(true)) continue;  // already fired
    sh.replica_crashed[self.id].store(true, std::memory_order_release);
    self.crash_event = CrashEvent{/*restart=*/true,
                                  restarts[i].restart_after_ms,
                                  restarts[i].wal_fault};
    return true;
  }
  return false;
}

/// This leadership's broadcast of round t, built once: the RoundStart
/// proposal sizes it and every (re)transmission resends it.  Between the
/// two the applied state holds still (x and ū move only at a RoundCommit),
/// and a new leadership starts from a fresh Driver.  Frame size is
/// leader-independent (leader_id is fixed-width), which is what lets
/// RoundStart carry the byte count all replicas account identically.
const std::vector<std::byte>& broadcast_frame(const Replica& self,
                                              const Shared& sh, Driver& drv,
                                              std::uint64_t t) {
  if (drv.frame_round != t) {
    drv.frame = make_broadcast(t, self.id, self.sm.committer, sh.options->fl,
                               sh.workers->codecs());
    drv.frame_round = t;
  }
  return drv.frame;
}

void send_broadcasts(Replica& self, Shared& sh, Driver& drv,
                     std::vector<FaultyChannel>& downlinks, bool original) {
  const auto& frame = broadcast_frame(self, sh, drv, self.sm.ledger.round());
  for (std::size_t k = 0; k < sh.num_workers; ++k) {
    if (!self.sm.ledger.awaits(k)) continue;
    if (original) {
      sh.downlink_meter->record(frame.size());
    } else {
      sh.downlink_meter->record_retransmit(frame.size());
      sh.master_retransmits.fetch_add(1, std::memory_order_relaxed);
    }
    downlinks[k].send(frame);
  }
}

Clock::time_point next_deadline(const Shared& sh, Driver& drv) {
  const RecoveryOptions& rec = sh.options->recovery;
  double scale = std::pow(rec.backoff, drv.attempt);
  if (rec.backoff_jitter > 0.0) {
    scale *= 1.0 + rec.backoff_jitter * drv.jitter.uniform();
  }
  return Clock::now() + seconds_to_duration(rec.round_timeout_s * scale);
}

enum class DriveResult { kOk, kCrash };

/// The leader's control loop: a pure function of the *applied* state plus
/// volatile retransmission bookkeeping.  Followers no-op.  Progress gates on
/// applied (= committed) state only, which forces the log order
/// RoundStart < all Replies < RoundCommit < ClientStates and makes every
/// apply deterministic.
DriveResult drive(Replica& self, Shared& sh, Driver& drv,
                  std::vector<FaultyChannel>& downlinks) {
  if (self.node.role() != RaftNode::Role::kLeader) {
    drv.leading = false;
    return DriveResult::kOk;
  }
  if (!drv.leading || drv.term != self.node.term()) {
    const std::uint64_t started = drv.leading ? drv.started_round : 0;
    drv = Driver{};
    drv.leading = true;
    drv.term = self.node.term();
    drv.started_round = started;
    drv.proposed_reply.assign(sh.num_workers, 0);
    drv.proposed_crash.assign(sh.num_workers, 0);
    drv.jitter = util::Rng(sh.options->fault.seed ^ (0x6a1700ULL + self.id));
  }
  StateMachine& sm = self.sm;
  const fl::SimulationOptions& flopt = sh.options->fl;
  const RecoveryOptions& rec = sh.options->recovery;

  if (sm.finished) {
    // Linger until surviving followers hold the whole log (so each can
    // apply the final checkpoint entry), then tear the cluster down.
    const auto now = Clock::now();
    if (!drv.finish_deadline) {
      const double linger_s =
          std::max(0.5, 100.0 * sh.options->replication.tick_interval_s);
      drv.finish_deadline = now + seconds_to_duration(linger_s);
    }
    bool caught_up = true;
    for (std::uint32_t p = 0;
         p < static_cast<std::uint32_t>(sh.options->replication.replicas);
         ++p) {
      if (p == self.id) continue;
      if (sh.replica_crashed[p].load(std::memory_order_relaxed)) continue;
      if (self.node.peer_match_index(p) < self.node.last_log_index()) {
        caught_up = false;
      }
    }
    if (caught_up || now >= *drv.finish_deadline) {
      int expected = -1;
      sh.finished_replica.compare_exchange_strong(
          expected, static_cast<int>(self.id));
      sh.done.store(true, std::memory_order_release);
    }
    return DriveResult::kOk;
  }

  if (sm.ledger.is_open()) {
    const std::uint64_t t = sm.ledger.round();
    const bool bounded = rec.round_timeout_s > 0.0;
    if (drv.bcast_round != t) {
      drv.bcast_round = t;
      drv.attempt = 0;
      drv.accepted = 0;
      drv.proposed_reply.assign(sh.num_workers, 0);
      drv.proposed_crash.assign(sh.num_workers, 0);
      // A leader that did not start this round is re-driving a predecessor's
      // round: its (re)broadcasts are recovery traffic, not originals.
      send_broadcasts(self, sh, drv, downlinks,
                      /*original=*/drv.started_round == t);
      if (bounded) drv.deadline = next_deadline(sh, drv);
      if (maybe_crash(self, sh, drv)) return DriveResult::kCrash;
    } else if (bounded && Clock::now() >= drv.deadline) {
      bool unanswered = false;
      for (std::size_t k = 0; k < sh.num_workers; ++k) {
        if (sm.ledger.awaits(k) && !drv.proposed_reply[k]) {
          unanswered = true;
        }
      }
      if (unanswered) {
        if (drv.attempt == 0) {  // count the round, not every expiry
          sh.timed_out_rounds.fetch_add(1, std::memory_order_relaxed);
        }
        ++drv.attempt;
        if (drv.attempt >= rec.max_attempts) {
          for (std::size_t k = 0; k < sh.num_workers; ++k) {
            if (sm.ledger.awaits(k) && !drv.proposed_reply[k] &&
                !drv.proposed_crash[k]) {
              self.node.propose(
                  encode_worker_crash(t, static_cast<std::uint32_t>(k)));
              drv.proposed_crash[k] = 1;
            }
          }
          drv.deadline = Clock::now() + seconds_to_duration(3600.0);
        } else {
          send_broadcasts(self, sh, drv, downlinks, /*original=*/false);
          drv.deadline = next_deadline(sh, drv);
        }
      } else {
        drv.deadline = next_deadline(sh, drv);  // replies in flight to commit
      }
    }
    if (sm.ledger.pending() == 0 && drv.proposed_commit != t) {
      self.node.propose(encode_round_commit(t));
      drv.proposed_commit = t;
    }
    return DriveResult::kOk;
  }

  // Between rounds: checkpoint if due, then advance or finish.
  const std::uint64_t t = sm.ledger.round();
  const bool last = t >= flopt.max_iterations;
  const bool checkpoint_due = t >= 1 && sm.states_round < t &&
                              sm.ledger.crashed().empty() &&
                              sm.committer.checkpoint_due(t, sm.stop);
  if (checkpoint_due) {
    if (drv.proposed_states != t) {
      // Safe to read worker-owned state: every active worker's round-t
      // reply is *applied*, and application happens-after the worker's
      // uplink send (two channel hops), so the training writes are visible
      // here even if a different replica physically received the frame.
      self.node.propose(encode_client_states(t, sh.workers->client_states(),
                                             sh.workers->codec_states()));
      drv.proposed_states = t;
    }
    return DriveResult::kOk;  // wait for the entry to commit and apply
  }
  if (sm.stop || last || sm.ledger.invitable(sm.committer) == 0) {
    if (!drv.proposed_finish) {
      self.node.propose(encode_finish());
      drv.proposed_finish = true;
    }
    return DriveResult::kOk;
  }
  if (drv.started_round != t + 1) {
    const auto& frame = broadcast_frame(self, sh, drv, t + 1);
    self.node.propose(encode_round_start(t + 1, frame.size()));
    drv.started_round = t + 1;
  }
  return DriveResult::kOk;
}

/// One frame out of the replica's inbox: Raft traffic steps the node; data
/// frames hit the leader path (propose a Reply entry) or earn a redirect.
DriveResult handle_frame(Replica& self, Shared& sh, Driver& drv,
                         const std::vector<std::byte>& frame) {
  const auto payload = try_open_frame(frame);
  if (!payload) {
    sh.master_corrupt.fetch_add(1, std::memory_order_relaxed);
    return DriveResult::kOk;
  }
  if (is_raft_frame(*payload)) {
    RaftMessage msg;
    try {
      msg = decode_raft(*payload);
    } catch (const std::exception&) {
      sh.master_corrupt.fetch_add(1, std::memory_order_relaxed);
      return DriveResult::kOk;
    }
    if (partition_blocks(sh, self, raft_sender(msg))) return DriveResult::kOk;
    self.node.step(msg);
    return DriveResult::kOk;
  }
  std::optional<Reply> reply = read_reply(*payload, *sh.workers);
  if (!reply) {
    sh.master_corrupt.fetch_add(1, std::memory_order_relaxed);
    return DriveResult::kOk;
  }
  const std::uint32_t client_id = reply->client_id;
  if (self.node.role() != RaftNode::Role::kLeader) {
    // A lagging follower may legitimately see replies for rounds it has not
    // applied yet (stale leader_hint chains), so no iteration check here.
    // Stale-leader data frame: tell the worker who leads now so it can
    // re-send its cached reply there.
    RedirectMsg rd;
    rd.iteration = reply->iteration;
    rd.leader_id = self.node.leader_hint();
    auto out = encode(Message(rd));
    seal_frame(out);
    sh.control_meter->record(out.size());
    sh.leader_redirects.fetch_add(1, std::memory_order_relaxed);
    sh.workers->inbox(client_id).send(std::move(out));
    return DriveResult::kOk;
  }
  StateMachine& sm = self.sm;
  if (reply->iteration > sm.ledger.round()) {
    // Leader completeness: a committed RoundStart is always in the leader's
    // applied prefix before any worker could have seen its broadcast.
    throw std::runtime_error("replicated master: reply from the future");
  }
  if (!sm.ledger.expects(reply->iteration, client_id) ||
      drv.proposed_reply[client_id]) {
    sh.master_redundant.fetch_add(1, std::memory_order_relaxed);
    return DriveResult::kOk;
  }
  RoundLedger::Answer answer{.upload = reply->is_upload(),
                             .score = reply->score,
                             .wire_bytes = frame.size()};
  if (answer.upload) {
    // The leader decodes *before* proposing: the replicated log carries the
    // dense reconstruction, so followers (and post-failover leaders) apply
    // identical state without ever touching a codec.
    answer.update =
        reply_update(*reply, self.decoder.get(), sm.committer.global().size());
  }
  self.node.propose(encode_reply(sm.ledger.round(), client_id, answer));
  drv.proposed_reply[client_id] = 1;
  ++drv.accepted;
  if (maybe_crash(self, sh, drv)) return DriveResult::kCrash;
  return DriveResult::kOk;
}

void replica_main(Replica& self, Shared& sh) {
  std::vector<FaultyChannel> downlinks;
  downlinks.reserve(sh.num_workers);
  for (std::size_t k = 0; k < sh.num_workers; ++k) {
    downlinks.emplace_back(
        sh.workers->inbox(k), sh.options->fault.downlink_for(k),
        sh.options->fault.replica_link_rng(self.id, k, /*is_uplink=*/false),
        sh.fault_stats);
  }
  const auto tick = seconds_to_duration(
      sh.options->replication.tick_interval_s);
  Driver drv;
  auto next_tick = Clock::now() + tick;
  while (!sh.done.load(std::memory_order_acquire)) {
    pump(self, sh);
    if (drive(self, sh, drv, downlinks) == DriveResult::kCrash) return;
    pump(self, sh);
    const auto now = Clock::now();
    if (now >= next_tick) {
      self.node.tick();
      next_tick = now + tick;
      continue;  // pump on the next pass
    }
    auto frame = self.inbox.recv_for(next_tick - now);
    if (!frame) continue;
    if (handle_frame(self, sh, drv, *frame) == DriveResult::kCrash) return;
  }
}

/// Rebuilds a crashed replica from its durable storage directory (DESIGN.md
/// §15): re-opens the WAL + snapshot (optionally damaged first by the
/// scheduled storage fault), restores the state machine from the recovered
/// snapshot, and hands the recovered state to a fresh RaftNode that rejoins
/// as a follower.  Returns false — leaving the replica down, loudly, with a
/// restart_load_error counted — when recovery throws on unrecoverable
/// corruption; rejoining with silently wrong state is never an option.
bool rebuild_replica(Replica& self, Shared& sh, const CrashEvent& ev) {
  const ClusterOptions& options = *sh.options;
  if (ev.wal_fault != StorageFault::kNone && self.storage != nullptr) {
    StorageFaultInjector injector(options.fault.seed ^
                                  (0xd15c0ULL + self.id));
    injector.apply(ev.wal_fault, self.storage->wal_path());
  }
  // Fold the dead incarnation's counters before dropping it: fsyncs and
  // elections that already happened must survive into the final report.
  if (self.storage != nullptr) {
    const RaftStorageCounters sc = self.storage->counters();
    self.retired_storage.wal_bytes_fsynced += sc.wal_bytes_fsynced;
    self.retired_storage.wal_records += sc.wal_records;
    self.retired_storage.replay_entries += sc.replay_entries;
    self.retired_storage.snapshots_written += sc.snapshots_written;
  }
  {
    const RaftCounters& rc = self.node.counters();
    self.retired_raft.elections_won += rc.elections_won;
    self.retired_raft.entries_appended += rc.entries_appended;
    self.retired_raft.snapshots_installed += rc.snapshots_installed;
  }
  self.storage.reset();  // close the dead incarnation's file descriptors
  try {
    auto storage =
        std::make_unique<RaftStorage>(replica_storage_dir(options, self.id));
    // Frames addressed to the dead incarnation are lost with the process;
    // the inbox Channel itself must survive (workers hold references).
    while (self.inbox.recv_for(Clock::duration::zero())) {
    }
    StateMachine sm(options, sh.num_workers, *sh.initial_global);
    if (sh.resume_from != nullptr) sm.restore_checkpoint(*sh.resume_from);
    const RaftPersistentState& rec = storage->recovered();
    if (rec.snapshot_index > 0) sm.restore_snapshot(rec.snapshot);
    self.storage = std::move(storage);
    self.node = RaftNode(make_raft_config(options, self.id),
                         self.storage.get());
    self.sm = std::move(sm);
    return true;
  } catch (const std::exception&) {
    sh.restart_load_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
}

/// Runs incarnations of replica_main until the run finishes, the replica
/// crash-stops, or a crash-restart's recovery refuses corrupt storage.
void run_incarnations(Replica& self, Shared& sh) {
  for (;;) {
    replica_main(self, sh);
    if (sh.done.load(std::memory_order_acquire)) return;
    const CrashEvent ev = self.crash_event;
    self.crash_event = CrashEvent{};
    if (!ev.restart) return;  // crash-stop: dead for the rest of the run
    std::this_thread::sleep_for(seconds_to_duration(ev.delay_ms / 1000.0));
    if (sh.done.load(std::memory_order_acquire)) return;
    if (!rebuild_replica(self, sh, ev)) return;  // loud failure: stay down
    sh.replica_restarts.fetch_add(1, std::memory_order_relaxed);
    // Only now may peers resume sending: the rebuilt node is ready.
    sh.replica_crashed[self.id].store(false, std::memory_order_release);
  }
}

/// The per-replica thread body.  An exception (a checkpoint that cannot be
/// written, a protocol error) ends the whole run: it is kept for the
/// caller, which rethrows it after joining every thread.
void replica_thread(std::uint32_t rid, Shared& sh) {
  try {
    run_incarnations(*(*sh.replicas)[rid], sh);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(sh.error_mutex);
      if (!sh.error) sh.error = std::current_exception();
    }
    sh.done.store(true, std::memory_order_release);
  }
}

}  // namespace

// ------------------------------------------------------------------- entry

ClusterResult run_replicated_cluster(
    std::vector<std::unique_ptr<fl::FlClient>>& clients,
    core::UpdateFilter& filter, const fl::GlobalEvaluator& evaluator,
    const ClusterOptions& options, std::size_t dim,
    const fl::TrainerCheckpoint* resume_from) {
  const std::size_t num_workers = clients.size();
  const auto num_replicas =
      static_cast<std::uint32_t>(options.replication.replicas);

  std::vector<float> global(dim);
  clients.front()->get_params(global);

  std::vector<std::unique_ptr<Replica>> replicas;
  ByteMeter downlink_meter;
  ByteMeter control_meter;
  FaultStats fault_stats;
  // Declared after everything its threads use (the replicas' inboxes and
  // the fault counters), so that on every exit path it shuts the workers
  // down and joins them first.
  WorkerGroup workers(clients, filter, options);
  if (resume_from != nullptr) {
    // The model, counters and history are restored (and validated) by
    // each replica's state machine below.
    workers.restore(*resume_from);
    const fl::ClusterMeterState& m = resume_from->meters;
    downlink_meter.restore(m.downlink_bytes, m.downlink_messages,
                           m.downlink_retransmitted);
  }

  replicas.reserve(num_replicas);
  for (std::uint32_t r = 0; r < num_replicas; ++r) {
    StateMachine sm(options, num_workers, global);
    if (resume_from != nullptr) sm.restore_checkpoint(*resume_from);
    std::unique_ptr<RaftStorage> storage;
    if (!options.replication.storage_dir.empty()) {
      const std::string dir = replica_storage_dir(options, r);
      // A run owns its storage directory: state left by a previous run —
      // even the one a resume checkpoint came from — describes a different
      // Raft cluster (this run starts at term 0), so wipe it.
      std::filesystem::remove_all(dir);
      storage = std::make_unique<RaftStorage>(dir);
    }
    replicas.push_back(std::make_unique<Replica>(
        r, make_raft_config(options, r), std::move(sm), std::move(storage)));
    if (workers.codecs().enabled()) {
      // The ctor admits stateless-decode codecs only, so the seed is inert;
      // a private instance per replica keeps decoding thread-confined.
      replicas.back()->decoder = codec::make_update_codec(
          options.fl.codec.spec, options.fl.codec.seed_salt);
    }
  }

  Shared sh;
  sh.options = &options;
  sh.num_workers = num_workers;
  sh.evaluator = &evaluator;
  sh.replicas = &replicas;
  sh.workers = &workers;
  sh.downlink_meter = &downlink_meter;
  sh.control_meter = &control_meter;
  sh.fault_stats = &fault_stats;
  const std::size_t crash_entries = options.fault.leader_crash.size();
  sh.crash_fired =
      std::make_unique<std::atomic<bool>[]>(std::max<std::size_t>(1,
                                                                  crash_entries));
  for (std::size_t i = 0; i < crash_entries; ++i) sh.crash_fired[i] = false;
  const std::size_t restart_entries = options.fault.replica_restart.size();
  sh.restart_fired = std::make_unique<std::atomic<bool>[]>(
      std::max<std::size_t>(1, restart_entries));
  for (std::size_t i = 0; i < restart_entries; ++i) {
    sh.restart_fired[i] = false;
  }
  sh.replica_crashed = std::make_unique<std::atomic<bool>[]>(num_replicas);
  for (std::uint32_t r = 0; r < num_replicas; ++r) {
    sh.replica_crashed[r] = false;
  }
  sh.initial_global = &global;
  sh.resume_from = resume_from;

  std::vector<std::thread> replica_threads;
  replica_threads.reserve(num_replicas);
  for (std::uint32_t r = 0; r < num_replicas; ++r) {
    replica_threads.emplace_back([&, r] { replica_thread(r, sh); });
  }
  workers.start(num_replicas, [&](std::size_t k, std::uint32_t r) {
    return FaultyChannel(
        replicas[r]->inbox, options.fault.uplink_for(k),
        options.fault.replica_link_rng(r, k, /*is_uplink=*/true),
        &fault_stats);
  }, [&] { sh.done.store(true, std::memory_order_release); });

  for (auto& t : replica_threads) t.join();
  workers.stop();
  if (sh.error) std::rethrow_exception(sh.error);
  workers.rethrow_error();

  const int fid = sh.finished_replica.load(std::memory_order_acquire);
  if (fid < 0) {
    throw std::runtime_error(
        "replicated cluster: no replica finished the run (did the fault "
        "plan crash a majority of replicas?)");
  }
  StateMachine& sm = replicas[static_cast<std::size_t>(fid)]->sm;

  ClusterResult result;
  result.sim = sm.committer.finish();
  const WorkerStats& worker_stats = workers.stats();
  result.uplink_bytes = worker_stats.uplink.total_bytes();
  result.downlink_bytes = downlink_meter.total_bytes();
  result.uplink_retransmitted_bytes =
      worker_stats.uplink.retransmitted_bytes();
  result.downlink_retransmitted_bytes = downlink_meter.retransmitted_bytes();
  result.upload_messages = sm.upload_frames;
  result.elimination_messages = sm.elimination_frames;
  result.control_plane_bytes = control_meter.total_bytes();
  result.simulated_transfer_seconds = sm.ledger.transfer_seconds();

  FaultReport& faults = result.faults;
  faults.frames_dropped = fault_stats.frames_dropped.load();
  faults.frames_corrupted = fault_stats.frames_corrupted.load();
  faults.frames_duplicated = fault_stats.frames_duplicated.load();
  faults.corrupt_rejected =
      sh.master_corrupt.load() + worker_stats.corrupt_rejected.load();
  faults.redundant_frames =
      sh.master_redundant.load() + worker_stats.redundant_frames.load();
  faults.retransmits =
      sh.master_retransmits.load() + worker_stats.retransmits.load();
  faults.timed_out_rounds = sh.timed_out_rounds.load();
  faults.quorum_rounds = sm.quorum_rounds;
  faults.leader_redirects = sh.leader_redirects.load();
  faults.leader_crashes = sh.leader_crashes.load();
  faults.leader_probes = worker_stats.leader_probes.load();
  faults.replica_restarts = sh.replica_restarts.load();
  faults.restart_load_errors = sh.restart_load_errors.load();
  for (const auto& replica : replicas) {
    const RaftCounters& c = replica->node.counters();
    faults.elections_held += c.elections_won + replica->retired_raft.elections_won;
    faults.log_entries_replicated +=
        c.entries_appended + replica->retired_raft.entries_appended;
    faults.snapshot_transfers +=
        c.snapshots_installed + replica->retired_raft.snapshots_installed;
    faults.wal_bytes_fsynced += replica->retired_storage.wal_bytes_fsynced;
    faults.wal_replay_entries += replica->retired_storage.replay_entries;
    if (replica->storage != nullptr) {
      const RaftStorageCounters sc = replica->storage->counters();
      faults.wal_bytes_fsynced += sc.wal_bytes_fsynced;
      faults.wal_replay_entries += sc.replay_entries;
    }
  }
  faults.crashed_workers = sm.ledger.crashed();
  faults.max_staleness_per_client = sm.ledger.max_staleness();
  return result;
}

}  // namespace cmfl::net
