#include "net/message.h"

#include <stdexcept>

namespace cmfl::net {

namespace {

/// Writes `msg`'s frame layout to a WireWriter, or counts it on a WireSizer.
template <typename Writer>
void write_message(Writer& w, const Message& msg) {
  if (const auto* b = std::get_if<BroadcastMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kBroadcast));
    w.u32(b->seq);
    w.u64(b->iteration);
    w.u32(b->leader_id);
    w.f32(b->learning_rate);
    w.u8(b->codec_id);
    w.u8(b->codec_version);
    w.floats(b->global_params);
    w.floats(b->global_update);
  } else if (const auto* c = std::get_if<CodecUploadMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kCodecUpload));
    w.u32(c->seq);
    w.u64(c->iteration);
    w.u32(c->client_id);
    w.f64(c->score);
    w.u8(c->codec_id);
    w.u8(c->codec_version);
    w.bytes(c->payload);
  } else if (const auto* u = std::get_if<UpdateUploadMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kUpdateUpload));
    w.u32(u->seq);
    w.u64(u->iteration);
    w.u32(u->client_id);
    w.f64(u->score);
    w.floats(u->update);
  } else if (const auto* e = std::get_if<EliminationMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kElimination));
    w.u32(e->seq);
    w.u64(e->iteration);
    w.u32(e->client_id);
    w.f64(e->score);
  } else if (const auto* rd = std::get_if<RedirectMsg>(&msg)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kRedirect));
    w.u64(rd->iteration);
    w.u32(rd->leader_id);
  } else {
    w.u8(static_cast<std::uint8_t>(FrameType::kShutdown));
  }
}

}  // namespace

std::vector<std::byte> encode(const Message& msg) {
  WireSizer sizer;
  write_message(sizer, msg);
  WireWriter w(sizer.size() + kSealBytes);  // the frame and its seal
  write_message(w, msg);
  return w.take();
}

Message decode(std::span<const std::byte> frame) {
  WireReader r(frame);
  const auto type = static_cast<FrameType>(r.u8());
  switch (type) {
    case FrameType::kBroadcast: {
      BroadcastMsg b;
      b.seq = r.u32();
      b.iteration = r.u64();
      b.leader_id = r.u32();
      b.learning_rate = r.f32();
      b.codec_id = r.u8();
      b.codec_version = r.u8();
      b.global_params = r.floats();
      b.global_update = r.floats();
      if (!r.done()) throw std::runtime_error("decode: trailing bytes");
      return b;
    }
    case FrameType::kUpdateUpload: {
      UpdateUploadMsg u;
      u.seq = r.u32();
      u.iteration = r.u64();
      u.client_id = r.u32();
      u.score = r.f64();
      u.update = r.floats();
      if (!r.done()) throw std::runtime_error("decode: trailing bytes");
      return u;
    }
    case FrameType::kElimination: {
      EliminationMsg e;
      e.seq = r.u32();
      e.iteration = r.u64();
      e.client_id = r.u32();
      e.score = r.f64();
      if (!r.done()) throw std::runtime_error("decode: trailing bytes");
      return e;
    }
    case FrameType::kShutdown: {
      if (!r.done()) throw std::runtime_error("decode: trailing bytes");
      return ShutdownMsg{};
    }
    case FrameType::kRedirect: {
      RedirectMsg rd;
      rd.iteration = r.u64();
      rd.leader_id = r.u32();
      if (!r.done()) throw std::runtime_error("decode: trailing bytes");
      return rd;
    }
    case FrameType::kCodecUpload: {
      CodecUploadMsg c;
      c.seq = r.u32();
      c.iteration = r.u64();
      c.client_id = r.u32();
      c.score = r.f64();
      c.codec_id = r.u8();
      c.codec_version = r.u8();
      c.payload = r.bytes();
      if (!r.done()) throw std::runtime_error("decode: trailing bytes");
      return c;
    }
  }
  throw std::runtime_error("decode: unknown frame type " +
                           std::to_string(static_cast<int>(type)));
}

}  // namespace cmfl::net
