// FL protocol frames for the cluster emulation.
//
// Four frame types implement the paper's master–slave protocol (§V-C):
//   * Broadcast    master → worker: x_{t-1} and ū_{t-1}.
//   * UpdateUpload worker → master: the full local update (the expensive
//                  message whose count/bytes the paper minimizes).
//   * Elimination  worker → master: "status information ... indicating the
//                  completion of its local training and the elimination of
//                  its update" — a tiny fixed-size frame.
//   * Shutdown     master → worker: terminate the worker loop.
//
// Broadcast and reply frames carry a sequence number `seq`: a broadcast's
// seq is its round, its retransmissions are the same sealed bytes, and a
// worker's reply mirrors the broadcast seq it answers.  Receivers discard
// frames whose seq they have already processed, which makes retransmitted
// and network-duplicated frames idempotent (see DESIGN.md §9).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "net/wire.h"

namespace cmfl::net {

enum class FrameType : std::uint8_t {
  kBroadcast = 1,
  kUpdateUpload = 2,
  kElimination = 3,
  kShutdown = 4,
  kRedirect = 5,
  kCodecUpload = 6,
};

struct BroadcastMsg {
  std::uint32_t seq = 0;  // the round (reused on retransmit)
  std::uint64_t iteration = 0;
  /// Replicated control plane: the master replica that sent this broadcast
  /// and expects the reply.  Always 0 in single-master runs.
  std::uint32_t leader_id = 0;
  std::vector<float> global_params;
  std::vector<float> global_update;  // ū_{t-1} feedback
  float learning_rate = 0.0f;
  /// Codec negotiation, announced at round start: workers must reply with
  /// CodecUpload frames of exactly this codec id/version (or the classic
  /// dense UpdateUpload when codec_id is kCodecDense = 0).
  std::uint8_t codec_id = 0;
  std::uint8_t codec_version = 1;
};

struct UpdateUploadMsg {
  std::uint32_t seq = 0;  // mirrors the broadcast seq being answered
  std::uint64_t iteration = 0;
  std::uint32_t client_id = 0;
  std::vector<float> update;
  double score = 0.0;  // the filter metric, for server-side tracing
};

/// worker → master: an update encoded by a non-dense codec.  The payload is
/// opaque at the frame layer — the master decodes it with the negotiated
/// codec — and rides inside the same CRC-sealed frame as every other
/// message, so corruption is caught before any codec decode runs.
struct CodecUploadMsg {
  std::uint32_t seq = 0;  // mirrors the broadcast seq being answered
  std::uint64_t iteration = 0;
  std::uint32_t client_id = 0;
  double score = 0.0;  // the filter metric, for server-side tracing
  std::uint8_t codec_id = 0;
  std::uint8_t codec_version = 1;
  std::vector<std::byte> payload;
};

struct EliminationMsg {
  std::uint32_t seq = 0;  // mirrors the broadcast seq being answered
  std::uint64_t iteration = 0;
  std::uint32_t client_id = 0;
  double score = 0.0;
};

struct ShutdownMsg {};

/// Replicated control plane: a replica that receives a worker reply while
/// it is not the leader answers with a redirect so the worker can re-send
/// its cached reply to the replica it believes leads now.
struct RedirectMsg {
  std::uint64_t iteration = 0;
  std::uint32_t leader_id = 0;
};

using Message = std::variant<BroadcastMsg, UpdateUploadMsg, EliminationMsg,
                             ShutdownMsg, RedirectMsg, CodecUploadMsg>;

/// Serializes to a framed byte buffer: [u8 type][payload], allocated at
/// its exact size plus room for seal_frame's CRC.
std::vector<std::byte> encode(const Message& msg);

/// Parses a frame; throws std::runtime_error on unknown type or truncation.
Message decode(std::span<const std::byte> frame);

}  // namespace cmfl::net
