#include "net/raft.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/wire.h"

namespace cmfl::net {

namespace {

// Raft frame type bytes; FL data frames (net/message.h) use 1..6.
enum class RaftFrame : std::uint8_t {
  kRequestVote = 16,
  kVoteReply = 17,
  kAppendEntries = 18,
  kAppendReply = 19,
  kInstallSnapshot = 20,
  kSnapshotReply = 21,
  kPreVote = 22,
  kPreVoteReply = 23,
};

}  // namespace

std::vector<std::byte> encode_raft(const RaftMessage& msg) {
  WireWriter w;
  if (const auto* rv = std::get_if<RequestVoteMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kRequestVote));
    w.u64(rv->term);
    w.u32(rv->candidate);
    w.u64(rv->last_log_index);
    w.u64(rv->last_log_term);
  } else if (const auto* vr = std::get_if<VoteReplyMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kVoteReply));
    w.u64(vr->term);
    w.u32(vr->voter);
    w.u8(vr->granted);
  } else if (const auto* ae = std::get_if<AppendEntriesMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kAppendEntries));
    w.u64(ae->term);
    w.u32(ae->leader);
    w.u64(ae->prev_index);
    w.u64(ae->prev_term);
    w.u64(ae->commit);
    w.u64(ae->entries.size());
    for (const RaftEntry& e : ae->entries) {
      w.u64(e.term);
      w.bytes(e.command);
    }
  } else if (const auto* ar = std::get_if<AppendReplyMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kAppendReply));
    w.u64(ar->term);
    w.u32(ar->follower);
    w.u8(ar->success);
    w.u64(ar->match_index);
  } else if (const auto* is = std::get_if<InstallSnapshotMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kInstallSnapshot));
    w.u64(is->term);
    w.u32(is->leader);
    w.u64(is->last_index);
    w.u64(is->last_term);
    w.bytes(is->data);
  } else if (const auto* sr = std::get_if<SnapshotReplyMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kSnapshotReply));
    w.u64(sr->term);
    w.u32(sr->follower);
    w.u64(sr->last_index);
  } else if (const auto* pv = std::get_if<PreVoteMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(RaftFrame::kPreVote));
    w.u64(pv->term);
    w.u32(pv->candidate);
    w.u64(pv->last_log_index);
    w.u64(pv->last_log_term);
  } else {
    const auto& pr = std::get<PreVoteReplyMsg>(msg);
    w.u8(static_cast<std::uint8_t>(RaftFrame::kPreVoteReply));
    w.u64(pr.term);
    w.u32(pr.voter);
    w.u8(pr.granted);
  }
  return w.take();
}

RaftMessage decode_raft(std::span<const std::byte> frame) {
  WireReader r(frame);
  const auto type = static_cast<RaftFrame>(r.u8());
  switch (type) {
    case RaftFrame::kRequestVote: {
      RequestVoteMsg m;
      m.term = r.u64();
      m.candidate = r.u32();
      m.last_log_index = r.u64();
      m.last_log_term = r.u64();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kVoteReply: {
      VoteReplyMsg m;
      m.term = r.u64();
      m.voter = r.u32();
      m.granted = r.u8();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kAppendEntries: {
      AppendEntriesMsg m;
      m.term = r.u64();
      m.leader = r.u32();
      m.prev_index = r.u64();
      m.prev_term = r.u64();
      m.commit = r.u64();
      const std::uint64_t n = r.u64();
      if (n > r.remaining()) {
        throw std::runtime_error("decode_raft: entry count exceeds frame");
      }
      m.entries.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        RaftEntry e;
        e.term = r.u64();
        e.command = r.bytes();
        m.entries.push_back(std::move(e));
      }
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kAppendReply: {
      AppendReplyMsg m;
      m.term = r.u64();
      m.follower = r.u32();
      m.success = r.u8();
      m.match_index = r.u64();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kInstallSnapshot: {
      InstallSnapshotMsg m;
      m.term = r.u64();
      m.leader = r.u32();
      m.last_index = r.u64();
      m.last_term = r.u64();
      m.data = r.bytes();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kSnapshotReply: {
      SnapshotReplyMsg m;
      m.term = r.u64();
      m.follower = r.u32();
      m.last_index = r.u64();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kPreVote: {
      PreVoteMsg m;
      m.term = r.u64();
      m.candidate = r.u32();
      m.last_log_index = r.u64();
      m.last_log_term = r.u64();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
    case RaftFrame::kPreVoteReply: {
      PreVoteReplyMsg m;
      m.term = r.u64();
      m.voter = r.u32();
      m.granted = r.u8();
      if (!r.done()) throw std::runtime_error("decode_raft: trailing bytes");
      return m;
    }
  }
  throw std::runtime_error("decode_raft: unknown frame type " +
                           std::to_string(static_cast<int>(type)));
}

bool is_raft_frame(std::span<const std::byte> payload) noexcept {
  if (payload.empty()) return false;
  const auto t = static_cast<std::uint8_t>(payload[0]);
  return t >= static_cast<std::uint8_t>(RaftFrame::kRequestVote) &&
         t <= static_cast<std::uint8_t>(RaftFrame::kPreVoteReply);
}

std::uint32_t raft_sender(const RaftMessage& msg) noexcept {
  if (const auto* rv = std::get_if<RequestVoteMsg>(&msg)) return rv->candidate;
  if (const auto* vr = std::get_if<VoteReplyMsg>(&msg)) return vr->voter;
  if (const auto* ae = std::get_if<AppendEntriesMsg>(&msg)) return ae->leader;
  if (const auto* ar = std::get_if<AppendReplyMsg>(&msg)) return ar->follower;
  if (const auto* is = std::get_if<InstallSnapshotMsg>(&msg)) {
    return is->leader;
  }
  if (const auto* sr = std::get_if<SnapshotReplyMsg>(&msg)) {
    return sr->follower;
  }
  if (const auto* pv = std::get_if<PreVoteMsg>(&msg)) return pv->candidate;
  return std::get<PreVoteReplyMsg>(msg).voter;
}

// ----------------------------------------------------------------- storage

namespace {

constexpr std::array<char, 4> kWalMagic = {'C', 'M', 'R', 'W'};
constexpr std::uint32_t kWalVersion = 1;
constexpr std::array<char, 4> kSnapshotMagic = {'C', 'M', 'R', 'S'};
constexpr std::uint32_t kSnapshotVersion = 1;

// WAL record kinds.  Payloads are WireWriter-framed.
enum : std::uint8_t {
  kRecHardState = 1,  // u64 term, u8 has_vote, u32 vote
  kRecEntry = 2,      // u64 index, u64 term, byte array command
  kRecTruncate = 3,   // u64 last_kept (conflict-suffix truncation)
};

std::vector<std::byte> entry_record(std::uint64_t index,
                                    const RaftEntry& entry) {
  WireWriter w;
  w.u8(kRecEntry);
  w.u64(index);
  w.u64(entry.term);
  w.bytes(entry.command);
  return w.take();
}

}  // namespace

RaftStorage::RaftStorage(std::string dir, bool sync)
    : dir_(std::move(dir)), sync_(sync) {
  std::filesystem::create_directories(dir_);
  // Stale .tmp files are debris of a crash mid-rotation or mid-snapshot;
  // the rename never happened, so they hold no committed state.
  std::error_code ec;
  std::filesystem::remove(wal_path() + ".tmp", ec);
  std::filesystem::remove(snapshot_path() + ".tmp", ec);

  if (std::filesystem::exists(snapshot_path())) {
    const std::vector<std::byte> payload =
        util::load_sealed_file(snapshot_path(), kSnapshotMagic,
                               kSnapshotVersion);
    WireReader r(payload);
    state_.snapshot_index = r.u64();
    state_.snapshot_term = r.u64();
    state_.snapshot = r.bytes();
    if (!r.done()) {
      throw std::runtime_error("RaftStorage: trailing bytes in snapshot " +
                               snapshot_path());
    }
    state_.any = true;
  }

  wal_.emplace(wal_path(), kWalMagic, kWalVersion, sync_);
  state_.wal_tail_truncated = wal_->recovered().tail_truncated;
  for (const std::vector<std::byte>& rec : wal_->recovered().records) {
    replay_record(rec);
    state_.any = true;
  }
  hard_term_ = state_.term;
  hard_vote_ = state_.voted_for;
}

std::string RaftStorage::wal_path() const { return dir_ + "/wal"; }

std::string RaftStorage::snapshot_path() const { return dir_ + "/snapshot"; }

void RaftStorage::replay_record(std::span<const std::byte> record) {
  WireReader r(record);
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case kRecHardState: {
      state_.term = r.u64();
      const bool has_vote = r.u8() != 0;
      const std::uint32_t vote = r.u32();
      state_.voted_for =
          has_vote ? std::optional<std::uint32_t>(vote) : std::nullopt;
      break;
    }
    case kRecEntry: {
      const std::uint64_t index = r.u64();
      RaftEntry e;
      e.term = r.u64();
      e.command = r.bytes();
      // Entries at or below the snapshot horizon are superseded (the WAL
      // rotation that would have dropped them raced a crash).
      if (index <= state_.snapshot_index) break;
      const std::uint64_t last = state_.snapshot_index + state_.log.size();
      if (index == last + 1) {
        state_.log.push_back(std::move(e));
      } else if (index <= last) {
        // A re-appended slot implies the suffix from here was replaced.
        state_.log.resize(
            static_cast<std::size_t>(index - state_.snapshot_index - 1));
        state_.log.push_back(std::move(e));
      } else {
        throw std::runtime_error(
            "RaftStorage: WAL entry gap at index " + std::to_string(index) +
            " (log ends at " + std::to_string(last) + ") in " + wal_path());
      }
      ++counters_.replay_entries;
      break;
    }
    case kRecTruncate: {
      const std::uint64_t last_kept = r.u64();
      const std::uint64_t keep =
          last_kept > state_.snapshot_index
              ? last_kept - state_.snapshot_index
              : 0;
      if (keep < state_.log.size()) {
        state_.log.resize(static_cast<std::size_t>(keep));
      }
      break;
    }
    default:
      throw std::runtime_error("RaftStorage: unknown WAL record kind " +
                               std::to_string(kind) + " in " + wal_path());
  }
  if (!r.done()) {
    throw std::runtime_error("RaftStorage: trailing bytes in WAL record in " +
                             wal_path());
  }
}

std::vector<std::byte> RaftStorage::hard_state_record() const {
  WireWriter w;
  w.u8(kRecHardState);
  w.u64(hard_term_);
  w.u8(hard_vote_ ? 1 : 0);
  w.u32(hard_vote_ ? *hard_vote_ : 0);
  return w.take();
}

void RaftStorage::persist_hard_state(std::uint64_t term,
                                     std::optional<std::uint32_t> voted_for) {
  if (term == hard_term_ && voted_for == hard_vote_) return;
  hard_term_ = term;
  hard_vote_ = voted_for;
  wal_->append(hard_state_record(), /*sync_now=*/true);
}

void RaftStorage::append_entry(std::uint64_t index, const RaftEntry& entry,
                               bool sync_now) {
  wal_->append(entry_record(index, entry), sync_now);
}

void RaftStorage::truncate_suffix(std::uint64_t last_kept) {
  WireWriter w;
  w.u8(kRecTruncate);
  w.u64(last_kept);
  // Unsynced on purpose: a truncate record is only ever written together
  // with the replacement entries, whose sync() covers it.  If the batch is
  // lost to a crash, the pre-conflict log survives intact — safe, because
  // nothing about the replacement batch was acknowledged.
  wal_->append(w.take(), /*sync_now=*/false);
}

void RaftStorage::sync() { wal_->sync(); }

void RaftStorage::install_snapshot(std::uint64_t index, std::uint64_t term,
                                   std::span<const std::byte> data,
                                   std::span<const RaftEntry> tail) {
  WireWriter w;
  w.u64(index);
  w.u64(term);
  w.bytes(data);
  const std::vector<std::byte> payload = w.take();
  util::save_sealed_file(snapshot_path(), kSnapshotMagic, kSnapshotVersion,
                         payload);
  ++counters_.snapshots_written;

  // Rotate the WAL: everything at or below `index` is superseded by the
  // snapshot just sealed.  A crash between the two writes is safe — replay
  // skips WAL entries at or below the snapshot horizon.
  std::vector<std::vector<std::byte>> records;
  records.reserve(1 + tail.size());
  records.push_back(hard_state_record());
  std::uint64_t idx = index;
  for (const RaftEntry& e : tail) records.push_back(entry_record(++idx, e));

  const util::DurableFileStats& live = wal_->stats();
  retired_.bytes_fsynced += live.bytes_fsynced;
  retired_.fsync_calls += live.fsync_calls;
  retired_.records_appended += live.records_appended;
  wal_.reset();  // close the fd of the inode about to be unlinked
  const std::uint64_t bytes = util::DurableFile::rewrite(
      wal_path(), kWalMagic, kWalVersion, records, sync_);
  retired_.bytes_fsynced += bytes;
  retired_.fsync_calls += 1;
  retired_.records_appended += records.size();
  wal_.emplace(wal_path(), kWalMagic, kWalVersion, sync_);
}

RaftStorageCounters RaftStorage::counters() const noexcept {
  RaftStorageCounters c = counters_;
  const util::DurableFileStats& live = wal_->stats();
  c.wal_bytes_fsynced = retired_.bytes_fsynced + live.bytes_fsynced;
  c.wal_records = retired_.records_appended + live.records_appended;
  return c;
}

// -------------------------------------------------------------------- node

void RaftConfig::validate() const {
  if (cluster_size < 1) {
    throw std::invalid_argument("RaftConfig: cluster_size must be >= 1");
  }
  if (id >= cluster_size) {
    throw std::invalid_argument("RaftConfig: id out of range");
  }
  if (heartbeat_ticks < 1) {
    throw std::invalid_argument("RaftConfig: heartbeat_ticks must be >= 1");
  }
  if (election_timeout_min_ticks < 1 ||
      election_timeout_max_ticks < election_timeout_min_ticks) {
    throw std::invalid_argument(
        "RaftConfig: need 1 <= election_timeout_min_ticks <= "
        "election_timeout_max_ticks");
  }
  if (election_timeout_min_ticks <= heartbeat_ticks) {
    throw std::invalid_argument(
        "RaftConfig: election timeout must exceed the heartbeat cadence");
  }
}

RaftNode::RaftNode(const RaftConfig& config, RaftStorage* storage)
    : config_(config),
      storage_(storage),
      timeout_rng_(util::Rng(config.seed).split(config.id)) {
  config_.validate();
  votes_.assign(config_.cluster_size, 0);
  next_index_.assign(config_.cluster_size, 1);
  match_index_.assign(config_.cluster_size, 0);
  reset_election_timer();
  if (storage_ != nullptr && storage_->recovered().any) {
    const RaftPersistentState& ps = storage_->recovered();
    term_ = ps.term;
    voted_for_ = ps.voted_for;
    snapshot_index_ = ps.snapshot_index;
    snapshot_term_ = ps.snapshot_term;
    snapshot_ = ps.snapshot;
    log_.assign(ps.log.begin(), ps.log.end());
    // The commit index is volatile state: a restarted node only knows that
    // everything its snapshot covers was committed, and re-learns the rest
    // from the next leader heartbeat.  The host restores its application
    // state from the snapshot, so delivery resumes right after it.
    commit_ = snapshot_index_;
    delivered_ = snapshot_index_;
  }
}

std::uint64_t RaftNode::last_log_index() const noexcept {
  return snapshot_index_ + log_.size();
}

std::uint64_t RaftNode::peer_match_index(std::uint32_t peer) const noexcept {
  if (role_ != Role::kLeader || peer >= match_index_.size()) return 0;
  return match_index_[peer];
}

std::uint64_t RaftNode::term_at(std::uint64_t index) const {
  if (index == snapshot_index_) return snapshot_term_;
  return entry_at(index).term;
}

const RaftEntry& RaftNode::entry_at(std::uint64_t index) const {
  // index is 1-based and must lie in (snapshot_index_, last_log_index()].
  return log_[index - snapshot_index_ - 1];
}

void RaftNode::reset_election_timer() {
  ticks_ = 0;
  election_timeout_ = static_cast<int>(timeout_rng_.uniform_int(
      config_.election_timeout_min_ticks, config_.election_timeout_max_ticks));
}

void RaftNode::persist_hard_state() {
  if (storage_ != nullptr) storage_->persist_hard_state(term_, voted_for_);
}

void RaftNode::persist_last_entry(bool sync_now) {
  if (storage_ != nullptr) {
    storage_->append_entry(last_log_index(), log_.back(), sync_now);
  }
}

void RaftNode::become_follower(std::uint64_t term) {
  if (term > term_) {
    term_ = term;
    voted_for_.reset();
    persist_hard_state();
  }
  role_ = Role::kFollower;
  prevoting_ = false;
  reset_election_timer();
}

void RaftNode::become_candidate() {
  role_ = Role::kCandidate;
  prevoting_ = false;
  ++term_;
  voted_for_ = config_.id;
  persist_hard_state();
  votes_.assign(config_.cluster_size, 0);
  votes_[config_.id] = 1;
  reset_election_timer();
  if (config_.cluster_size == 1) {
    become_leader();
    return;
  }
  RequestVoteMsg rv;
  rv.term = term_;
  rv.candidate = config_.id;
  rv.last_log_index = last_log_index();
  rv.last_log_term = term_at(last_log_index());
  for (std::uint32_t p = 0; p < config_.cluster_size; ++p) {
    if (p != config_.id) outbox_.push_back({p, rv});
  }
}

void RaftNode::begin_prevote() {
  // Poll at term_ + 1 without touching term_: only a poll a majority says
  // would win is converted into a real election (become_candidate).
  prevoting_ = true;
  prevotes_.assign(config_.cluster_size, 0);
  prevotes_[config_.id] = 1;
  reset_election_timer();
  if (config_.cluster_size == 1) {
    become_candidate();
    return;
  }
  PreVoteMsg pv;
  pv.term = term_ + 1;
  pv.candidate = config_.id;
  pv.last_log_index = last_log_index();
  pv.last_log_term = term_at(last_log_index());
  for (std::uint32_t p = 0; p < config_.cluster_size; ++p) {
    if (p != config_.id) outbox_.push_back({p, pv});
  }
}

void RaftNode::become_leader() {
  role_ = Role::kLeader;
  prevoting_ = false;
  leader_hint_ = config_.id;
  ++counters_.elections_won;
  for (std::uint32_t p = 0; p < config_.cluster_size; ++p) {
    next_index_[p] = last_log_index() + 1;
    match_index_[p] = 0;
  }
  match_index_[config_.id] = last_log_index();
  // A fresh no-op barrier: committing it commits every earlier entry still
  // pending from previous terms (the "no counting for old terms" rule) and
  // tells the application when the new leader's state machine is current.
  log_.push_back(RaftEntry{term_, {}});
  persist_last_entry(/*sync_now=*/true);
  match_index_[config_.id] = last_log_index();
  ticks_ = 0;
  broadcast_heartbeat();
  advance_commit();  // single-node cluster commits immediately
}

void RaftNode::tick() {
  if (role_ == Role::kLeader) {
    if (++ticks_ >= config_.heartbeat_ticks) {
      ticks_ = 0;
      broadcast_heartbeat();
    }
    return;
  }
  if (++ticks_ >= election_timeout_) {
    if (config_.pre_vote) {
      begin_prevote();
    } else {
      become_candidate();
    }
  }
}

void RaftNode::broadcast_heartbeat() {
  for (std::uint32_t p = 0; p < config_.cluster_size; ++p) {
    if (p != config_.id) send_append(p);
  }
}

void RaftNode::send_append(std::uint32_t peer) {
  if (next_index_[peer] <= snapshot_index_) {
    // The entries this follower needs were compacted away: ship the
    // application snapshot instead.
    InstallSnapshotMsg is;
    is.term = term_;
    is.leader = config_.id;
    is.last_index = snapshot_index_;
    is.last_term = snapshot_term_;
    is.data = snapshot_;
    outbox_.push_back({peer, std::move(is)});
    return;
  }
  AppendEntriesMsg ae;
  ae.term = term_;
  ae.leader = config_.id;
  ae.prev_index = next_index_[peer] - 1;
  ae.prev_term = term_at(ae.prev_index);
  ae.commit = commit_;
  for (std::uint64_t i = next_index_[peer]; i <= last_log_index(); ++i) {
    ae.entries.push_back(entry_at(i));
  }
  outbox_.push_back({peer, std::move(ae)});
}

bool RaftNode::propose(std::vector<std::byte> command) {
  if (role_ != Role::kLeader) return false;
  log_.push_back(RaftEntry{term_, std::move(command)});
  // Persist before the AppendEntries frames carrying the entry can leave
  // the outbox: a leader must never ask followers to store what it could
  // itself forget in a restart.
  persist_last_entry(/*sync_now=*/true);
  match_index_[config_.id] = last_log_index();
  broadcast_heartbeat();
  advance_commit();  // single-node cluster
  return true;
}

void RaftNode::advance_commit() {
  if (role_ != Role::kLeader) return;
  for (std::uint64_t idx = last_log_index(); idx > commit_; --idx) {
    if (idx <= snapshot_index_) break;    // already compacted => committed
    if (term_at(idx) != term_) break;     // only current-term entries count
    std::uint32_t replicas = 0;
    for (std::uint32_t p = 0; p < config_.cluster_size; ++p) {
      if (match_index_[p] >= idx) ++replicas;
    }
    if (replicas * 2 > config_.cluster_size) {
      commit_ = idx;
      break;
    }
  }
  enqueue_committed();
}

void RaftNode::enqueue_committed() {
  while (delivered_ < commit_) {
    ++delivered_;
    if (delivered_ <= snapshot_index_) continue;  // superseded by snapshot
    const RaftEntry& e = entry_at(delivered_);
    if (e.command.empty()) continue;  // no-op barrier
    committed_out_.push_back({delivered_, e.command});
  }
}

void RaftNode::step(const RaftMessage& msg) {
  std::visit([this](const auto& m) { handle(m); }, msg);
}

void RaftNode::handle(const RequestVoteMsg& m) {
  if (m.term > term_) become_follower(m.term);
  VoteReplyMsg reply;
  reply.term = term_;
  reply.voter = config_.id;
  const bool up_to_date =
      m.last_log_term > term_at(last_log_index()) ||
      (m.last_log_term == term_at(last_log_index()) &&
       m.last_log_index >= last_log_index());
  if (m.term == term_ && up_to_date &&
      (!voted_for_ || *voted_for_ == m.candidate)) {
    voted_for_ = m.candidate;
    // Persist-before-ack: the vote is on stable storage before the grant
    // can leave the outbox, so a restarted node can never double-vote.
    persist_hard_state();
    reply.granted = 1;
    reset_election_timer();
  }
  outbox_.push_back({m.candidate, reply});
}

void RaftNode::handle(const PreVoteMsg& m) {
  PreVoteReplyMsg reply;
  reply.term = m.term;  // echo the proposed term so the poller can match
  reply.voter = config_.id;
  const bool up_to_date =
      m.last_log_term > term_at(last_log_index()) ||
      (m.last_log_term == term_at(last_log_index()) &&
       m.last_log_index >= last_log_index());
  // Grant only when the poll could win a real election (proposed term is
  // ahead, log is up to date) AND this node has itself stopped hearing
  // from a live leader — a healthy follower denies, which is exactly what
  // stops a healed partitioned node from deposing a stable leader.
  const bool leader_silent =
      role_ == Role::kCandidate ||
      (role_ == Role::kFollower &&
       ticks_ >= config_.election_timeout_min_ticks);
  if (m.term > term_ && up_to_date && leader_silent) reply.granted = 1;
  // No state changes: a pre-vote grant is a prediction, not a vote — the
  // term, voted_for, and election timer are all untouched.
  outbox_.push_back({m.candidate, reply});
}

void RaftNode::handle(const PreVoteReplyMsg& m) {
  if (!prevoting_ || m.term != term_ + 1 || !m.granted) return;
  prevotes_[m.voter] = 1;
  std::uint32_t granted = 0;
  for (const std::uint8_t v : prevotes_) granted += v;
  if (granted * 2 > config_.cluster_size) become_candidate();
}

void RaftNode::handle(const VoteReplyMsg& m) {
  if (m.term > term_) {
    become_follower(m.term);
    return;
  }
  if (role_ != Role::kCandidate || m.term != term_ || !m.granted) return;
  votes_[m.voter] = 1;
  std::uint32_t granted = 0;
  for (const std::uint8_t v : votes_) granted += v;
  if (granted * 2 > config_.cluster_size) become_leader();
}

void RaftNode::handle(const AppendEntriesMsg& m) {
  AppendReplyMsg reply;
  reply.follower = config_.id;
  if (m.term < term_) {
    reply.term = term_;
    reply.match_index = last_log_index();
    outbox_.push_back({m.leader, reply});
    return;
  }
  become_follower(m.term);
  leader_hint_ = m.leader;
  reply.term = term_;

  // Consistency check: our log must contain m.prev_index with m.prev_term.
  if (m.prev_index > last_log_index() ||
      (m.prev_index > snapshot_index_ &&
       term_at(m.prev_index) != m.prev_term) ||
      m.prev_index < snapshot_index_) {
    // (prev_index < snapshot_index_ means the leader is behind our
    // snapshot — stale leader; the hint re-syncs it.)
    reply.success = 0;
    reply.match_index = last_log_index();
    outbox_.push_back({m.leader, reply});
    return;
  }

  // Append new entries, truncating any conflicting suffix.
  std::uint64_t index = m.prev_index;
  bool appended = false;
  for (const RaftEntry& e : m.entries) {
    ++index;
    if (index <= last_log_index()) {
      if (term_at(index) == e.term) continue;  // already have it
      // Conflict: drop this entry and everything after it.
      log_.resize(index - snapshot_index_ - 1);
      if (storage_ != nullptr) storage_->truncate_suffix(index - 1);
    }
    log_.push_back(e);
    if (storage_ != nullptr) {
      storage_->append_entry(index, e, /*sync_now=*/false);
    }
    appended = true;
    ++counters_.entries_appended;
  }
  // One fsync covers the whole batch — persist-before-ack: the entries are
  // on stable storage before the success reply can leave the outbox.
  if (appended && storage_ != nullptr) storage_->sync();
  if (m.commit > commit_) {
    commit_ = std::min(m.commit, last_log_index());
    enqueue_committed();
  }
  reply.success = 1;
  reply.match_index = index > last_log_index() ? last_log_index() : index;
  if (reply.match_index < m.prev_index) reply.match_index = m.prev_index;
  outbox_.push_back({m.leader, reply});
}

void RaftNode::handle(const AppendReplyMsg& m) {
  if (m.term > term_) {
    become_follower(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  if (m.success) {
    if (m.match_index > match_index_[m.follower]) {
      match_index_[m.follower] = m.match_index;
    }
    next_index_[m.follower] = match_index_[m.follower] + 1;
    advance_commit();
    if (next_index_[m.follower] <= last_log_index()) {
      send_append(m.follower);  // keep streaming the remainder
    }
    return;
  }
  // Conflict hint: jump straight past the follower's log end.
  next_index_[m.follower] =
      std::min(next_index_[m.follower] > 1 ? next_index_[m.follower] - 1
                                           : 1,
               m.match_index + 1);
  if (next_index_[m.follower] < 1) next_index_[m.follower] = 1;
  send_append(m.follower);
}

void RaftNode::handle(const InstallSnapshotMsg& m) {
  if (m.term < term_) {
    SnapshotReplyMsg reply{term_, config_.id, last_log_index()};
    outbox_.push_back({m.leader, reply});
    return;
  }
  become_follower(m.term);
  leader_hint_ = m.leader;
  if (m.last_index > snapshot_index_) {
    // Discard the log the snapshot supersedes; keep any suffix beyond it
    // that is consistent (same slot still present).  Simplest safe rule:
    // drop everything — the leader streams the suffix next.
    log_.clear();
    snapshot_index_ = m.last_index;
    snapshot_term_ = m.last_term;
    snapshot_ = m.data;
    if (commit_ < snapshot_index_) commit_ = snapshot_index_;
    if (delivered_ < snapshot_index_) delivered_ = snapshot_index_;
    if (storage_ != nullptr) {
      // Persist before the ack: the reply tells the leader this follower
      // holds the snapshot, so a restart must not lose it.
      storage_->install_snapshot(snapshot_index_, snapshot_term_, snapshot_,
                                 {});
    }
    installed_ = InstalledSnapshot{m.last_index, m.data};
    ++counters_.snapshots_installed;
  }
  SnapshotReplyMsg reply{term_, config_.id, last_log_index()};
  outbox_.push_back({m.leader, reply});
}

void RaftNode::handle(const SnapshotReplyMsg& m) {
  if (m.term > term_) {
    become_follower(m.term);
    return;
  }
  if (role_ != Role::kLeader || m.term != term_) return;
  if (m.last_index > match_index_[m.follower]) {
    match_index_[m.follower] = m.last_index;
  }
  next_index_[m.follower] = match_index_[m.follower] + 1;
  advance_commit();
  if (next_index_[m.follower] <= last_log_index()) send_append(m.follower);
}

void RaftNode::compact(std::uint64_t index, std::vector<std::byte> snapshot) {
  if (index <= snapshot_index_) return;
  if (index > commit_) {
    throw std::invalid_argument(
        "RaftNode::compact: cannot compact past the commit index");
  }
  const std::uint64_t drop = index - snapshot_index_;
  snapshot_term_ = term_at(index);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(drop));
  snapshot_index_ = index;
  snapshot_ = std::move(snapshot);
  if (storage_ != nullptr) {
    const std::vector<RaftEntry> tail(log_.begin(), log_.end());
    storage_->install_snapshot(snapshot_index_, snapshot_term_, snapshot_,
                               tail);
  }
}

std::vector<RaftNode::Send> RaftNode::take_outbox() {
  return std::exchange(outbox_, {});
}

std::vector<RaftNode::Committed> RaftNode::take_committed() {
  return std::exchange(committed_out_, {});
}

std::optional<RaftNode::InstalledSnapshot>
RaftNode::take_installed_snapshot() {
  return std::exchange(installed_, std::nullopt);
}

}  // namespace cmfl::net
