// Pluggable update codecs: the bits-per-upload axis of communication
// savings, orthogonal to CMFL's uploads-per-round axis (paper §I).
//
// CMFL shrinks the *number* of updates that cross the uplink; a codec
// shrinks the *bits* of each update that does.  The two compose
// multiplicatively, and this subsystem is the single encode/decode/wire-size
// abstraction every layer shares: the in-process simulation, the
// sched::RoundEngine population runtime, and the socket cluster (where the
// encoded payload rides a real CRC-protected CodecUpload frame and the
// ByteMeter records the actual encoded bytes).
//
// Codec families (DESIGN.md §16):
//   * dense      — lossless float32, the vanilla wire format.
//   * sign       — 1-bit signSGD with a per-chunk mean-|v| scale, packed
//                  through the AVX2-accelerated tensor::SignPack.
//   * quant      — b-bit (b ∈ {2,4,8}) uniform quantization with stochastic
//                  rounding, so E[decode(encode(v))] = v (Konečný et al.).
//   * topk       — top-k magnitude sparsification with client-side
//                  error-feedback residual accumulation and delta-encoded
//                  varint index coding.
//   * codebook   — shared k-means codebook, FedCode-style: the codebook is
//                  transmitted only on periodic refreshes, index streams in
//                  between.
//   * subsample / structured — the Konečný sketched/structured baselines
//                  (folded in from the former core/compression.h).
//
// Every stochastic or carried-over state (quantization RNG, top-k residual,
// codebook cache + refresh counter) is exposed as opaque u64 words through
// mutable_state()/restore_mutable_state(), so crash-consistent checkpoints
// resume bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "util/rng.h"

namespace cmfl::codec {

/// Stable on-wire codec identifiers (CodecUpload frames carry one byte).
enum : std::uint8_t {
  kCodecDense = 0,
  kCodecSign = 1,
  kCodecQuant = 2,
  kCodecTopK = 3,
  kCodecCodebook = 4,
  kCodecSubsample = 5,
  kCodecStructured = 6,
};

/// Upper bound on the dense dimension a decoder will materialize.  The
/// sparse payload layouts (top-k, subsample, structured) carry the dense
/// dimension in the header without a matching payload-length equation, so a
/// corrupted header could otherwise request an arbitrarily large allocation
/// before any validation fires.  2^27 coordinates (512 MiB dense) is far
/// beyond any model this codebase trains.
inline constexpr std::uint64_t kMaxDecodeDim = std::uint64_t{1} << 27;

/// An encoded update.  The wire footprint *is* the payload size — derived,
/// never stored, so a codec cannot report a size that disagrees with what
/// actually hits the channel.
struct EncodedUpdate {
  std::uint8_t codec_id = kCodecDense;
  std::vector<std::byte> payload;

  std::size_t wire_bytes() const noexcept { return payload.size(); }
};

class UpdateCodec {
 public:
  virtual ~UpdateCodec() = default;

  virtual std::string name() const = 0;
  /// On-wire codec id (one of the kCodec* constants above).
  virtual std::uint8_t id() const = 0;
  /// Payload-format version, negotiated alongside the id at round start.
  virtual std::uint8_t version() const { return 1; }

  /// Encodes `update`.  Implementations may be lossy and may advance
  /// internal state (RNG streams, error-feedback residuals, refresh
  /// counters); decode(encode(u).payload) returns the reconstruction the
  /// server would apply.
  virtual EncodedUpdate encode(std::span<const float> update) = 0;

  /// Reconstructs a dense update from an encoded payload.  Throws
  /// std::runtime_error on any malformed payload — truncated, trailing
  /// bytes, out-of-range indices or parameters.  A payload must never
  /// silently decode to a different update than the one encoded.
  virtual std::vector<float> decode(std::span<const std::byte> payload) = 0;

  /// True when decode() itself carries state between payloads (the codebook
  /// codec's cached centers).  Such codecs cannot survive a replicated-
  /// master failover, where any replica must be able to decode any payload.
  virtual bool stateful_decode() const { return false; }

  /// Mutable codec state (RNG streams, residuals, codebook cache) as opaque
  /// u64 words — captured by crash-consistent checkpoints so a resumed run
  /// continues the exact stream the uninterrupted one would have.
  /// Stateless codecs return an empty vector.
  virtual std::vector<std::uint64_t> mutable_state() const { return {}; }

  /// Restores a state captured by mutable_state(); throws
  /// std::invalid_argument on a malformed blob.
  virtual void restore_mutable_state(std::span<const std::uint64_t> state);
};

/// Codec configuration plumbed through fl::SimulationOptions into every
/// runtime (simulation, RoundEngine, cluster).
struct CodecOptions {
  /// "dense" | "sign[:<chunk>]" | "quant:<bits>" | "topk:<k-or-fraction>" |
  /// "codebook:<k>[,<refresh>]" | "subsample:<keep>" |
  /// "structured:<density>".
  std::string spec = "dense";
  /// Client k's codec is seeded seed_salt + k, so every client owns an
  /// independent deterministic stream regardless of execution order.
  std::uint64_t seed_salt = 9000;
};

/// True when `spec` names the lossless dense format — the fast path that
/// skips codec objects entirely.
bool is_dense_spec(const std::string& spec);

/// Factory; throws std::invalid_argument on an unknown or malformed spec.
std::unique_ptr<UpdateCodec> make_update_codec(const std::string& spec,
                                               std::uint64_t seed);

/// Every client's codec, for every runtime: client k's is seeded
/// seed_salt + k and made on first use, and the id and version each upload
/// negotiates.  Holds no codec for the dense spec (id 0, version 1), whose
/// uploads skip codec objects entirely.
class CodecPlane {
 public:
  /// Throws std::invalid_argument on an unknown or malformed spec.
  explicit CodecPlane(const CodecOptions& options);

  bool enabled() const { return enabled_; }
  std::uint8_t id() const { return id_; }
  std::uint8_t version() const { return version_; }
  bool stateful_decode() const { return stateful_decode_; }

  /// Client k's codec, made on first use; call only when enabled().  Not a
  /// const operation for data-race purposes: only the owning thread calls
  /// it, and other threads use the codec through the reference.
  UpdateCodec& at(std::uint64_t k);

  /// Each made codec's mutable_state(), by client id.
  util::StateMap states() const;
  /// Restores each listed client's codec, making it first.  Throws
  /// std::invalid_argument on a malformed state and on any state under the
  /// dense spec.
  void restore(const util::StateMap& states);

 private:
  CodecOptions options_;
  bool enabled_ = false;
  std::uint8_t id_ = kCodecDense;
  std::uint8_t version_ = 1;
  bool stateful_decode_ = false;
  std::map<std::uint64_t, std::unique_ptr<UpdateCodec>> codecs_;
};

// --------------------------------------------------------------- the codecs

/// Lossless float32: [u64 dim][f32 x dim].  8 + 4·dim bytes.
class DenseCodec final : public UpdateCodec {
 public:
  std::string name() const override { return "dense"; }
  std::uint8_t id() const override { return kCodecDense; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;
};

/// 1-bit signSGD with a per-chunk scale: coordinate i decodes to
/// ±scale[i / chunk], where scale is the chunk's mean |v| and the sign bits
/// are packed 64 per word via the AVX2-accelerated tensor::SignPack.
/// [u64 dim][u32 chunk][f32 scale x ceil(dim/chunk)][u64 x ceil(dim/64)] —
/// dim/8 bytes of signs plus a small scale header.
class SignCodec final : public UpdateCodec {
 public:
  explicit SignCodec(std::size_t chunk = kDefaultChunk);
  static constexpr std::size_t kDefaultChunk = 256;
  std::string name() const override;
  std::uint8_t id() const override { return kCodecSign; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;

 private:
  std::size_t chunk_;
  tensor::SignPack pack_;  // scratch, reused across encodes
};

/// b-bit uniform quantization (b ∈ {2,4,8}) over [min, max] with stochastic
/// rounding: E[decode(encode(v))] = v.  [u64 dim][u8 bits][f32 lo][f32 hi]
/// [packed b-bit levels].  The rounding RNG is checkpointed state.
class QuantCodec final : public UpdateCodec {
 public:
  QuantCodec(int bits, std::uint64_t seed);
  std::string name() const override;
  std::uint8_t id() const override { return kCodecQuant; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  int bits_;
  util::Rng rng_;
};

/// Top-k magnitude sparsification with client-side error feedback: the
/// residual of every unsent coordinate is added back before the next
/// selection, so nothing is permanently dropped — only delayed.  Indices
/// are sorted and delta-encoded as LEB128 varints.
/// [u64 dim][u64 k][varint index deltas][f32 value x k].  The residual is
/// checkpointed state (bit-packed, two floats per u64 word).
class TopKCodec final : public UpdateCodec {
 public:
  /// param >= 1: absolute k; param in (0, 1): fraction of the dimension
  /// (at least one coordinate is always kept).
  explicit TopKCodec(double param);
  std::string name() const override;
  std::uint8_t id() const override { return kCodecTopK; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  double param_;
  std::vector<float> residual_;  // error feedback, carried across encodes
};

/// Shared-codebook codec (FedCode): a k-means codebook over the update's
/// values is computed deterministically (quantile init + Lloyd iterations)
/// and transmitted only every `refresh` encodes; the uploads in between are
/// pure index streams against the receiver's cached codebook.
/// [u64 dim][u8 index_bits][u8 has_codebook][u8 k-1 + f32 x k when present]
/// [packed indices].  decode() caches the codebook -> stateful_decode().
class CodebookCodec final : public UpdateCodec {
 public:
  CodebookCodec(std::size_t k, std::size_t refresh = kDefaultRefresh);
  static constexpr std::size_t kDefaultRefresh = 16;
  std::string name() const override;
  std::uint8_t id() const override { return kCodecCodebook; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;
  bool stateful_decode() const override { return true; }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  std::size_t k_;
  std::size_t refresh_;
  std::uint64_t encodes_ = 0;         // refresh counter
  std::vector<float> codebook_;       // shared encoder/decoder cache
};

/// Random-subsampling sketch (Konečný): transmit a fraction `keep` of
/// coordinates (index + value), scaled by 1/keep so the aggregate stays
/// unbiased.  [u64 dim][u64 count][(u32 idx, f32 val) x count].
class SubsampleCodec final : public UpdateCodec {
 public:
  SubsampleCodec(double keep, std::uint64_t seed);
  std::string name() const override;
  std::uint8_t id() const override { return kCodecSubsample; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  double keep_;
  util::Rng rng_;
};

/// Structured (random-mask) update (Konečný): the update is *constrained*
/// to a random coordinate subset of density `density`; no rescaling — the
/// mask is part of the model update itself.  Same payload layout as
/// SubsampleCodec.
class StructuredMaskCodec final : public UpdateCodec {
 public:
  StructuredMaskCodec(double density, std::uint64_t seed);
  std::string name() const override;
  std::uint8_t id() const override { return kCodecStructured; }
  EncodedUpdate encode(std::span<const float> update) override;
  std::vector<float> decode(std::span<const std::byte> payload) override;
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  double density_;
  util::Rng rng_;
};

}  // namespace cmfl::codec
