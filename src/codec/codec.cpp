#include "codec/codec.h"

#include <cstdio>
#include <stdexcept>

#include "net/wire.h"  // header-only WireWriter/WireReader primitives

namespace cmfl::codec {

void UpdateCodec::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  if (!state.empty()) {
    throw std::invalid_argument(
        "UpdateCodec: state blob for a stateless codec");
  }
}

// ------------------------------------------------------------------- dense

EncodedUpdate DenseCodec::encode(std::span<const float> update) {
  net::WireWriter w;
  w.floats(update);
  return {kCodecDense, w.take()};
}

std::vector<float> DenseCodec::decode(std::span<const std::byte> payload) {
  net::WireReader r(payload);
  std::vector<float> out = r.floats();
  if (!r.done()) throw std::runtime_error("DenseCodec: trailing bytes");
  return out;
}

// --------------------------------------------------------------- subsample

SubsampleCodec::SubsampleCodec(double keep, std::uint64_t seed)
    : keep_(keep), rng_(seed) {
  if (!(keep > 0.0) || keep > 1.0) {
    throw std::invalid_argument("SubsampleCodec: keep must be in (0,1]");
  }
}

std::string SubsampleCodec::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "subsample:%.2f", keep_);
  return buf;
}

EncodedUpdate SubsampleCodec::encode(std::span<const float> update) {
  std::vector<std::uint32_t> kept;
  for (std::size_t i = 0; i < update.size(); ++i) {
    if (rng_.uniform() < keep_) kept.push_back(static_cast<std::uint32_t>(i));
  }
  net::WireWriter w;
  w.u64(update.size());
  w.u64(kept.size());
  const auto scale = static_cast<float>(1.0 / keep_);
  for (const std::uint32_t idx : kept) {
    w.u32(idx);
    w.f32(update[idx] * scale);
  }
  return {kCodecSubsample, w.take()};
}

namespace {

/// Shared decode of the [u64 dim][u64 count][(u32 idx, f32 val) x count]
/// sparse layout used by the subsample and structured-mask codecs.
std::vector<float> decode_sparse_pairs(std::span<const std::byte> payload,
                                       const char* who) {
  net::WireReader r(payload);
  const std::uint64_t dim = r.u64();
  const std::uint64_t count = r.u64();
  if (dim > kMaxDecodeDim) {
    throw std::runtime_error(std::string(who) +
                             ": dimension header exceeds limit");
  }
  if (count > r.remaining() / (sizeof(std::uint32_t) + sizeof(float))) {
    throw std::runtime_error(std::string(who) + ": count exceeds payload");
  }
  std::vector<float> out(static_cast<std::size_t>(dim), 0.0f);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t idx = r.u32();
    const float value = r.f32();
    if (idx >= dim) {
      throw std::runtime_error(std::string(who) + ": index out of range");
    }
    out[idx] = value;
  }
  if (!r.done()) {
    throw std::runtime_error(std::string(who) + ": trailing bytes");
  }
  return out;
}

}  // namespace

std::vector<float> SubsampleCodec::decode(std::span<const std::byte> payload) {
  return decode_sparse_pairs(payload, "SubsampleCodec");
}

std::vector<std::uint64_t> SubsampleCodec::mutable_state() const {
  return util::rng_state_words(rng_);
}

void SubsampleCodec::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

// ---------------------------------------------------------- structured mask

StructuredMaskCodec::StructuredMaskCodec(double density, std::uint64_t seed)
    : density_(density), rng_(seed) {
  if (!(density > 0.0) || density > 1.0) {
    throw std::invalid_argument(
        "StructuredMaskCodec: density must be in (0,1]");
  }
}

std::string StructuredMaskCodec::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "structured:%.2f", density_);
  return buf;
}

EncodedUpdate StructuredMaskCodec::encode(std::span<const float> update) {
  std::vector<std::uint32_t> kept;
  for (std::size_t i = 0; i < update.size(); ++i) {
    if (rng_.uniform() < density_) {
      kept.push_back(static_cast<std::uint32_t>(i));
    }
  }
  net::WireWriter w;
  w.u64(update.size());
  w.u64(kept.size());
  for (const std::uint32_t idx : kept) {
    w.u32(idx);
    w.f32(update[idx]);  // no rescaling: the mask IS the update
  }
  return {kCodecStructured, w.take()};
}

std::vector<float> StructuredMaskCodec::decode(
    std::span<const std::byte> payload) {
  return decode_sparse_pairs(payload, "StructuredMaskCodec");
}

std::vector<std::uint64_t> StructuredMaskCodec::mutable_state() const {
  return util::rng_state_words(rng_);
}

void StructuredMaskCodec::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

// ----------------------------------------------------------------- factory

bool is_dense_spec(const std::string& spec) {
  return spec == "dense";
}

namespace {

double parse_number(const std::string& arg, const std::string& spec) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(arg, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != arg.size()) {
    throw std::invalid_argument("make_update_codec: malformed parameter in '" +
                                spec + "'");
  }
  return value;
}

std::size_t parse_count(const std::string& arg, const std::string& spec) {
  const double value = parse_number(arg, spec);
  if (!(value >= 0.0) || value != static_cast<double>(
                                      static_cast<std::size_t>(value))) {
    throw std::invalid_argument("make_update_codec: malformed parameter in '" +
                                spec + "'");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

std::unique_ptr<UpdateCodec> make_update_codec(const std::string& spec,
                                               std::uint64_t seed) {
  if (is_dense_spec(spec)) return std::make_unique<DenseCodec>();
  if (spec == "sign") return std::make_unique<SignCodec>();
  const auto colon = spec.find(':');
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    const std::string kind = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);
    if (kind == "sign") {
      return std::make_unique<SignCodec>(parse_count(arg, spec));
    }
    if (kind == "quant") {
      return std::make_unique<QuantCodec>(
          static_cast<int>(parse_count(arg, spec)), seed);
    }
    if (kind == "topk") {
      return std::make_unique<TopKCodec>(parse_number(arg, spec));
    }
    if (kind == "codebook") {
      const auto comma = arg.find(',');
      if (comma == std::string::npos) {
        return std::make_unique<CodebookCodec>(parse_count(arg, spec));
      }
      return std::make_unique<CodebookCodec>(
          parse_count(arg.substr(0, comma), spec),
          parse_count(arg.substr(comma + 1), spec));
    }
    if (kind == "subsample") {
      return std::make_unique<SubsampleCodec>(parse_number(arg, spec), seed);
    }
    if (kind == "structured") {
      return std::make_unique<StructuredMaskCodec>(parse_number(arg, spec),
                                                   seed);
    }
  }
  throw std::invalid_argument("make_update_codec: unknown spec '" + spec +
                              "'");
}

CodecPlane::CodecPlane(const CodecOptions& options)
    : options_(options), enabled_(!is_dense_spec(options.spec)) {
  // Validates the spec up front, so a typo never fails mid-run.
  const auto probe = make_update_codec(options.spec, options.seed_salt);
  id_ = probe->id();
  version_ = probe->version();
  stateful_decode_ = probe->stateful_decode();
}

UpdateCodec& CodecPlane::at(std::uint64_t k) {
  auto& slot = codecs_[k];
  if (!slot) slot = make_update_codec(options_.spec, options_.seed_salt + k);
  return *slot;
}

util::StateMap CodecPlane::states() const {
  util::StateMap states;
  for (const auto& [k, codec] : codecs_) {
    states.emplace_hint(states.end(), k, codec->mutable_state());
  }
  return states;
}

void CodecPlane::restore(const util::StateMap& states) {
  if (!enabled_ && !states.empty()) {
    throw std::invalid_argument("CodecPlane: codec state for the dense spec");
  }
  for (const auto& [k, words] : states) at(k).restore_mutable_state(words);
}

}  // namespace cmfl::codec
