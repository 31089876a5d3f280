#include "net/worker.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "fl/checkpoint.h"

namespace cmfl::net {

namespace {

std::optional<Message> try_decode(std::span<const std::byte> payload) {
  try {
    return decode(payload);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Worker `client_id`'s reply to `bc` — the one place a reply is made: an
/// Elimination frame when the filter dropped the update, else a CodecUpload
/// through the worker's `codec` (a dense UpdateUpload when there is none).
Message make_reply(const BroadcastMsg& bc, std::uint32_t client_id,
                   const core::FilterDecision& decision,
                   std::span<const float> update, codec::UpdateCodec* codec) {
  const auto stamped = [&](auto msg) {
    msg.seq = bc.seq;
    msg.iteration = bc.iteration;
    msg.client_id = client_id;
    msg.score = decision.score;
    return Message(std::move(msg));
  };
  if (!decision.upload) return stamped(EliminationMsg{});
  if (codec != nullptr) {
    CodecUploadMsg up;
    up.codec_id = codec->id();
    up.codec_version = codec->version();
    up.payload = codec->encode(update).payload;
    return stamped(std::move(up));
  }
  UpdateUploadMsg up;
  up.update.assign(update.begin(), update.end());
  return stamped(std::move(up));
}

}  // namespace

LeaderProbe::Target LeaderProbe::on_redirect(std::uint32_t hinted) {
  if (hinted < replicas && redirects < 2 * replicas) {
    ++redirects;
    known_leader = hinted;
    return Target{hinted, /*probed=*/false, 0.0};
  }
  Target target;
  target.replica = (known_leader + 1 + probe_cursor) % replicas;
  ++probe_cursor;
  target.probed = true;
  target.backoff_ms = backoff_ms;
  backoff_ms = std::min(backoff_ms * 2.0, kBackoffCapMs);
  return target;
}

void LeaderProbe::on_broadcast(std::uint32_t leader) {
  known_leader = leader;
  redirects = 0;
  probe_cursor = 0;
  backoff_ms = 1.0;
}

std::vector<std::byte> make_broadcast(std::uint64_t t, std::uint32_t leader_id,
                                      const fl::RoundCommitter& committer,
                                      const fl::SimulationOptions& options,
                                      const codec::CodecPlane& codecs) {
  BroadcastMsg bc;
  bc.seq = static_cast<std::uint32_t>(t);
  bc.iteration = t;
  bc.leader_id = leader_id;
  bc.learning_rate = static_cast<float>(options.learning_rate.at(t));
  bc.codec_id = codecs.id();
  bc.codec_version = codecs.version();
  bc.global_params.assign(committer.global().begin(),
                          committer.global().end());
  bc.global_update.assign(committer.estimate().begin(),
                          committer.estimate().end());
  auto frame = encode(Message(std::move(bc)));
  seal_frame(frame);
  return frame;
}

// ------------------------------------------------------------------ worker

Worker::Worker(WorkerGroup& group, std::size_t k, codec::UpdateCodec* codec,
               std::vector<FaultyChannel> uplinks)
    : group_(group),
      id_(static_cast<std::uint32_t>(k)),
      codec_(codec),
      uplinks_(std::move(uplinks)),
      update_(group.clients_[k]->param_count()),
      probe_(static_cast<std::uint32_t>(uplinks_.size())) {}

void Worker::resend(std::uint32_t replica) {
  group_.stats_.retransmits.fetch_add(1, std::memory_order_relaxed);
  group_.stats_.uplink.record_retransmit(cached_reply_.size());
  uplinks_[replica].send(cached_reply_);
}

void Worker::serve() {
  const ClusterOptions& options = group_.options_;
  const codec::CodecPlane& codecs = group_.codecs_;
  WorkerStats& stats = group_.stats_;
  const auto crash_at = options.fault.crash_iteration_for(id_);
  const double straggle_s = options.fault.straggler_delay_for(id_);
  for (;;) {
    auto frame = group_.inbox(id_).recv();
    if (!frame) return;
    const auto payload = try_open_frame(*frame);
    const auto msg = payload ? try_decode(*payload) : std::nullopt;
    if (!msg) {
      // Corrupted in transit; the master's round deadline will expire and
      // the broadcast will be retransmitted.
      stats.corrupt_rejected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (std::holds_alternative<ShutdownMsg>(*msg)) return;
    if (const auto* rd = std::get_if<RedirectMsg>(&*msg)) {
      if (rd->iteration != last_seq_ || cached_reply_.empty()) {
        stats.redundant_frames.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Follow the hint while the redirect budget lasts; past it (or on a
      // bogus hint) probe the replicas round-robin with capped backoff —
      // two stale replicas hinting at each other must not livelock us.
      const LeaderProbe::Target target = probe_.on_redirect(rd->leader_id);
      if (target.probed) {
        stats.leader_probes.fetch_add(1, std::memory_order_relaxed);
        if (target.backoff_ms > 0.0) {
          std::this_thread::sleep_for(
              seconds_to_duration(target.backoff_ms / 1000.0));
        }
      }
      resend(target.replica);
      continue;
    }
    const auto& bc = std::get<BroadcastMsg>(*msg);
    if (bc.global_params.size() != update_.size() ||
        bc.leader_id >= uplinks_.size()) {
      throw std::runtime_error("worker: malformed broadcast");
    }
    if (bc.codec_id != codecs.id() || bc.codec_version != codecs.version()) {
      throw std::runtime_error("worker: codec negotiation mismatch");
    }
    probe_.on_broadcast(bc.leader_id);
    if (bc.seq == last_seq_ && !cached_reply_.empty()) {
      // Already-processed round, seen again: a retransmission, a network
      // duplicate or a new leader's re-broadcast.  Re-send the cached reply
      // to whichever replica asked instead of retraining — this is what
      // makes retransmission idempotent.
      stats.redundant_frames.fetch_add(1, std::memory_order_relaxed);
      resend(bc.leader_id);
      continue;
    }
    if (bc.seq < last_seq_) {  // stale duplicate of an older round
      stats.redundant_frames.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (crash_at && bc.iteration >= *crash_at) return;  // crash-stop
    if (straggle_s > 0.0) {
      std::this_thread::sleep_for(seconds_to_duration(straggle_s));
    }

    core::FilterContext ctx;
    ctx.global_model = bc.global_params;
    ctx.estimated_global_update = bc.global_update;
    ctx.iteration = bc.iteration;
    const fl::LocalStep step = fl::local_update(
        *group_.clients_[id_], group_.filter_, ctx, options.fl.local_epochs,
        options.fl.batch_size, bc.learning_rate, update_);
    // Encoded once per trained round: re-sends reuse the cached frame, so
    // the codec stream advances once however many replicas see it.
    const Message reply = make_reply(bc, id_, step.decision, update_, codec_);
    auto bytes = encode(reply);
    seal_frame(bytes);
    stats.uplink.record(bytes.size());
    cached_reply_ = bytes;
    last_seq_ = bc.seq;
    uplinks_[bc.leader_id].send(std::move(bytes));
  }
}

// ------------------------------------------------------------ worker group

WorkerGroup::WorkerGroup(std::vector<std::unique_ptr<fl::FlClient>>& clients,
                         const core::UpdateFilter& filter,
                         const ClusterOptions& options)
    : clients_(clients),
      filter_(filter),
      options_(options),
      inboxes_(clients.size()),
      codecs_(options.fl.codec) {
  local_samples_.resize(size());
  for (std::size_t k = 0; k < size(); ++k) {
    local_samples_[k] = clients_[k]->local_samples();
    codec(k);  // made before any thread starts
  }
}

void WorkerGroup::restore(const fl::TrainerCheckpoint& ck) {
  // Keys 0…n−1: n distinct ids whose largest is n − 1 (n ≥ 1).
  const auto one_per_worker = [this](const util::StateMap& states) {
    return states.size() == size() && states.rbegin()->first == size() - 1;
  };
  if (!one_per_worker(ck.client_state) ||
      (codecs_.enabled() ? !one_per_worker(ck.codec_state)
                         : !ck.codec_state.empty())) {
    throw std::invalid_argument("FlCluster: checkpoint worker count mismatch");
  }
  codecs_.restore(ck.codec_state);
  for (const auto& [k, words] : ck.client_state) {
    clients_[k]->restore_mutable_state(words);
  }
  const fl::ClusterMeterState& m = ck.meters;
  stats_.uplink.restore(m.uplink_bytes, m.uplink_messages,
                        m.uplink_retransmitted);
}

util::StateMap WorkerGroup::client_states() const {
  util::StateMap states;
  for (std::size_t k = 0; k < size(); ++k) {
    states.emplace_hint(states.end(), k, clients_[k]->mutable_state());
  }
  return states;
}

void WorkerGroup::start(
    std::uint32_t replicas,
    const std::function<FaultyChannel(std::size_t, std::uint32_t)>& uplink,
    std::function<void()> wake) {
  uplink_ = uplink;
  replicas_ = replicas;
  threads_.reserve(size());
  for (std::size_t k = 0; k < size(); ++k) {
    threads_.emplace_back([this, k, mine = codec(k), wake] {
      // A worker allocates its uplinks and buffers on its own thread: which
      // thread allocates what moves glibc's arena layout, and with it the
      // round time of MB-sized frames (DESIGN.md §19).
      try {
        std::vector<FaultyChannel> links;
        for (std::uint32_t r = 0; r < replicas_; ++r) {
          links.push_back(uplink_(k, r));
        }
        Worker(*this, k, mine, std::move(links)).serve();
      } catch (...) {  // a protocol error ends the run, not the process
        {
          const std::lock_guard<std::mutex> lock(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        wake();
      }
    });
  }
}

void WorkerGroup::rethrow_error() const {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (error_) std::rethrow_exception(error_);
}

void WorkerGroup::stop() {
  if (threads_.empty()) return;
  auto shutdown = encode(Message(ShutdownMsg{}));
  seal_frame(shutdown);
  for (Channel& inbox : inboxes_) inbox.send(shutdown);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

// ------------------------------------------------------------ reply intake

std::optional<Reply> read_reply(std::span<const std::byte> payload,
                                const WorkerGroup& workers) {
  std::optional<Message> msg = try_decode(payload);
  if (!msg) return std::nullopt;
  Reply reply;
  reply.msg = std::move(*msg);
  std::visit(
      [&reply](const auto& m) {
        if constexpr (requires { m.client_id; }) {
          reply.iteration = m.iteration;
          reply.client_id = m.client_id;
          reply.score = m.score;
        } else {
          throw std::runtime_error("master: unexpected frame from a worker");
        }
      },
      reply.msg);
  if (reply.client_id >= workers.size()) {
    throw std::runtime_error("master: reply from an unknown worker");
  }
  const codec::CodecPlane& codecs = workers.codecs();
  const auto* cu = std::get_if<CodecUploadMsg>(&reply.msg);
  if (cu && (!codecs.enabled() || cu->codec_id != codecs.id() ||
             cu->codec_version != codecs.version())) {
    throw std::runtime_error(
        "master: reply codec does not match the negotiated one");
  }
  if (std::holds_alternative<UpdateUploadMsg>(reply.msg) && codecs.enabled()) {
    throw std::runtime_error("master: dense upload under a negotiated codec");
  }
  return reply;
}

std::vector<float> reply_update(Reply& reply, codec::UpdateCodec* decoder,
                                std::size_t dim) {
  auto* up = std::get_if<UpdateUploadMsg>(&reply.msg);
  std::vector<float> update =
      up ? std::move(up->update)
         : decoder->decode(std::get<CodecUploadMsg>(reply.msg).payload);
  if (update.size() != dim) {
    throw std::runtime_error("master: bad update size");
  }
  return update;
}

// ------------------------------------------------------------ round ledger

RoundLedger::RoundLedger(std::size_t workers)
    : alive_(workers, 1),
      invited_(workers, 0),
      answers_(workers),
      last_acked_(workers, 0),
      max_staleness_(workers, 0),
      missed_deadlines_(workers, 0) {}

void RoundLedger::resume(std::uint64_t t, double transfer_seconds) {
  round_ = t;
  open_ = false;
  last_acked_.assign(last_acked_.size(), t);
  transfer_seconds_ = transfer_seconds;
}

bool RoundLedger::quiesced(const fl::RoundCommitter& committer) const {
  if (open_ || !crashed_.empty()) return false;
  for (std::size_t k = 0; k < last_acked_.size(); ++k) {
    if (!committer.quarantined(k) && last_acked_[k] != round_) return false;
  }
  return true;
}

std::size_t RoundLedger::invitable(const fl::RoundCommitter& committer) const {
  std::size_t n = 0;
  for (std::size_t k = 0; k < alive_.size(); ++k) {
    if (alive_[k] && !committer.quarantined(k)) ++n;
  }
  return n;
}

std::size_t RoundLedger::open(std::uint64_t t,
                              const fl::RoundCommitter& committer,
                              std::uint64_t broadcast_bytes) {
  round_ = t;
  open_ = true;
  broadcast_bytes_ = broadcast_bytes;
  accepted_ = 0;
  pending_ = 0;
  for (std::size_t k = 0; k < alive_.size(); ++k) {
    invited_[k] = alive_[k] && !committer.quarantined(k) ? 1 : 0;
    pending_ += invited_[k];
    answers_[k].reset();  // a restored snapshot may abandon an open round
  }
  invited_count_ = pending_;
  return pending_;
}

bool RoundLedger::accept(std::uint64_t round, std::size_t k, Answer answer) {
  if (!expects(round, k)) return false;
  answers_[k] = std::move(answer);
  last_acked_[k] = round;
  ++accepted_;
  --pending_;
  return true;
}

void RoundLedger::crash(std::size_t k) {
  if (k >= alive_.size() || !alive_[k]) return;
  alive_[k] = 0;
  crashed_.push_back(static_cast<std::uint32_t>(k));
  if (!awaits(k)) return;
  invited_[k] = 0;
  --pending_;
}

fl::RoundOutcome RoundLedger::close(fl::RoundCommitter& committer,
                                    const fl::GlobalEvaluator& evaluate,
                                    std::span<const std::size_t> samples,
                                    const ClusterOptions& options,
                                    RoundClose how) {
  if (!open_) throw std::logic_error("RoundLedger: no open round to close");
  timed_out_rounds_ += how.timed_out ? 1 : 0;
  over_select_commits_ += how.over_selected ? 1 : 0;
  quorum_rounds_ += missed() && !how.over_selected ? 1 : 0;
  for (std::size_t k = 0; k < answers_.size(); ++k) {
    if (answers_[k]) {
      missed_deadlines_[k] = 0;
    } else if (awaits(k) && !how.over_selected) {
      ++missed_deadlines_[k];
    }
  }
  std::vector<fl::RoundReport> reports;
  reports.reserve(accepted_);
  double max_upload_transfer = 0.0;
  for (std::size_t k = 0; k < answers_.size(); ++k) {
    if (!answers_[k]) continue;
    const Answer& a = *answers_[k];
    reports.push_back({.client = k,
                       .upload = a.upload,
                       .score = a.score,
                       .samples = samples[k],
                       .update = a.update,
                       .wire_bytes = a.wire_bytes});
    max_upload_transfer = std::max(
        max_upload_transfer, options.uplink.transfer_seconds(a.wire_bytes));
  }
  const fl::RoundOutcome outcome = committer.close_round(
      static_cast<std::size_t>(round_), reports, evaluate);
  transfer_seconds_ += options.downlink.transfer_seconds(broadcast_bytes_) +
                       max_upload_transfer;
  for (std::size_t k = 0; k < answers_.size(); ++k) {
    if (!committer.quarantined(k)) {
      max_staleness_[k] = std::max(max_staleness_[k], round_ - last_acked_[k]);
    }
    answers_[k].reset();
  }
  open_ = false;
  return outcome;
}

std::vector<std::uint64_t> RoundLedger::state_words() const {
  std::vector<std::uint64_t> words;
  words.push_back(alive_.size());
  words.insert(words.end(), alive_.begin(), alive_.end());
  words.insert(words.end(), last_acked_.begin(), last_acked_.end());
  words.insert(words.end(), max_staleness_.begin(), max_staleness_.end());
  words.insert(words.end(), missed_deadlines_.begin(),
               missed_deadlines_.end());
  words.insert(words.end(),
               {timed_out_rounds_, quorum_rounds_, over_select_commits_});
  words.push_back(crashed_.size());
  words.insert(words.end(), crashed_.begin(), crashed_.end());
  return words;
}

void RoundLedger::restore_state_words(std::span<const std::uint64_t> words) {
  const std::size_t n = alive_.size();
  const std::size_t head = 4 * n + 4;  // n, four per-worker rows, counters
  if (words.size() < head + 1 || words[0] != n) {
    throw std::runtime_error("RoundLedger: words for another worker count");
  }
  // The crash count must fit the workers and the words that follow it.
  const std::uint64_t count = words[head];
  const std::span<const std::uint64_t> crashed = words.subspan(head + 1);
  if (count > n || count != crashed.size() ||
      std::any_of(crashed.begin(), crashed.end(),
                  [n](std::uint64_t k) { return k >= n; })) {
    throw std::runtime_error("RoundLedger: crash list does not fit");
  }
  for (std::size_t k = 0; k < n; ++k) {
    alive_[k] = words[1 + k] != 0 ? 1 : 0;
    last_acked_[k] = words[1 + n + k];
    max_staleness_[k] = words[1 + 2 * n + k];
    missed_deadlines_[k] = words[1 + 3 * n + k];
  }
  timed_out_rounds_ = words[1 + 4 * n];
  quorum_rounds_ = words[2 + 4 * n];
  over_select_commits_ = words[3 + 4 * n];
  crashed_.assign(crashed.begin(), crashed.end());
  open_ = false;
}

// ------------------------------------------------------------ round driver

void RoundDriver::arm(Clock::time_point now) {
  deadline_.reset();
  if (options_.round_timeout_s <= 0.0) return;
  double scale = std::pow(options_.backoff, attempt_);
  if (options_.backoff_jitter > 0.0) {
    scale *= 1.0 + options_.backoff_jitter * jitter_.uniform();
  }
  deadline_ = now + seconds_to_duration(options_.round_timeout_s * scale);
}

RoundDriver::Step RoundDriver::commit(Step step, RoundClose how) {
  awaited_.clear();
  pending_ = 0;
  deadline_.reset();
  step.commit = how;
  return step;
}

RoundDriver::Step RoundDriver::settle(Step step) {
  // Over-selection: the Kth reply commits the round now; the stragglers'
  // late replies are discarded idempotently once it has closed.
  const bool over = options_.first_k_reports > 0 && pending_ > 0 &&
                    accepted_ >= options_.first_k_reports;
  if (pending_ > 0 && !over) return step;
  step.send.clear();
  return commit(std::move(step), {timed_out_, over});
}

RoundDriver::Step RoundDriver::open(const RoundLedger& ledger,
                                    Clock::time_point now) {
  awaited_.assign(ledger.workers(), 0);
  pending_ = 0;
  accepted_ = ledger.accepted();
  quorum_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             options_.quorum * static_cast<double>(ledger.invited()))));
  attempt_ = 0;
  timed_out_ = false;
  Step step;
  for (std::size_t k = 0; k < awaited_.size(); ++k) {
    if (!ledger.awaits(k)) continue;
    awaited_[k] = 1;
    ++pending_;
    step.send.push_back(static_cast<std::uint32_t>(k));
  }
  arm(now);
  return settle(std::move(step));
}

RoundDriver::Step RoundDriver::on_reply(std::size_t k) {
  if (!awaits(k)) return {};
  awaited_[k] = 0;
  --pending_;
  ++accepted_;
  return settle({});
}

RoundDriver::Step RoundDriver::on_expiry(Clock::time_point now) {
  if (!deadline_) return {};
  timed_out_ = true;
  Step step;
  if (accepted_ >= quorum_) {
    // Quorum reached: the unanswered are late for this round and re-sync
    // on the next broadcast.
    return commit(std::move(step), {.timed_out = true});
  }
  for (std::size_t k = 0; k < awaited_.size(); ++k) {
    if (awaited_[k]) step.send.push_back(static_cast<std::uint32_t>(k));
  }
  if (++attempt_ < options_.max_attempts) {
    step.resend = true;
    arm(now);
    return step;
  }
  // Retransmit budget spent below quorum: the silent workers are declared
  // crashed and the round commits with whatever answered.
  step.crash.swap(step.send);
  return commit(std::move(step), {.timed_out = true});
}

std::vector<std::uint32_t> RoundDriver::suspects(
    const RecoveryOptions& options, const RoundLedger& ledger,
    const fl::RoundCommitter& committer) {
  std::vector<std::uint32_t> dead;
  const int after = options.suspect_after_stale_rounds;
  for (std::size_t k = 0; after > 0 && k < ledger.workers(); ++k) {
    if (ledger.alive(k) && !committer.quarantined(k) &&
        ledger.missed_deadlines(k) >= static_cast<std::uint64_t>(after)) {
      dead.push_back(static_cast<std::uint32_t>(k));
    }
  }
  return dead;
}

std::uint64_t send_broadcast(const RoundDriver::Step& step,
                             const std::vector<std::byte>& frame,
                             std::vector<FaultyChannel>& downlinks,
                             ByteMeter& meter, bool original) {
  const bool retransmit = step.resend || !original;
  for (const std::uint32_t k : step.send) {
    if (retransmit) {
      meter.record_retransmit(frame.size());
    } else {
      meter.record(frame.size());
    }
    downlinks[k].send(frame);
  }
  return retransmit ? step.send.size() : 0;
}

}  // namespace cmfl::net
