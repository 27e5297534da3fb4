#include "dsm/codec/message.h"

#include "dsm/objects/opcodes.h"  // header-only; no link dependency

namespace dsm {

namespace {
// Flag bits of the WriteUpdate flags byte.  Bit 1 announces the typed
// trailer; every other bit (bit 0 included) is reserved and rejects.
constexpr std::uint8_t kFlagTyped = 2;
}  // namespace

void WriteUpdate::encode(ByteWriter& w) const {
  const bool typed = spec != 0 || opcode != 0 || arg2 != 0;
  w.u32(sender);
  w.u32(var);
  w.i64(value);
  w.u64(write_seq);
  w.u64(run);
  w.u8(typed ? kFlagTyped : std::uint8_t{0});
  w.u64(blob.size());
  w.bytes(blob);
  w.u64_vec(clock.components());
  w.u64(sub_deps.size());
  for (const auto& d : sub_deps) {
    w.u32(d.row);
    w.u32(d.col);
    w.u64(d.seq);
  }
  if (typed) {
    w.u8(spec);
    w.u8(opcode);
    w.i64(arg2);
  }
}

std::optional<WriteUpdate> WriteUpdate::decode(ByteReader& r) {
  WriteUpdate m;
  const auto sender = r.u32();
  const auto var = r.u32();
  const auto value = r.i64();
  const auto seq = r.u64();
  const auto run = r.u64();
  const auto flags = r.u8();
  const auto blob_len = r.u64();
  if (!sender || !var || !value || !seq || !run || !flags || !blob_len ||
      (*flags & ~kFlagTyped) != 0 ||
      *blob_len > (1ULL << 24) || *blob_len > r.remaining()) {
    return std::nullopt;
  }
  m.blob.reserve(static_cast<std::size_t>(*blob_len));
  for (std::uint64_t i = 0; i < *blob_len; ++i) {
    const auto byte = r.u8();
    if (!byte) return std::nullopt;
    m.blob.push_back(*byte);
  }
  auto clock = r.u64_vec();
  if (!clock) return std::nullopt;
  const auto dep_count = r.u64();
  // Each entry is at least 3 encoded bytes; cap by the remaining input so a
  // forged count cannot drive the reserve below.
  if (!dep_count || *dep_count > (1ULL << 24) || *dep_count > r.remaining()) {
    return std::nullopt;
  }
  m.sub_deps.reserve(static_cast<std::size_t>(*dep_count));
  for (std::uint64_t i = 0; i < *dep_count; ++i) {
    SubDep d;
    const auto row = r.u32();
    const auto col = r.u32();
    const auto dep_seq = r.u64();
    if (!row || !col || !dep_seq) return std::nullopt;
    d.row = *row;
    d.col = *col;
    d.seq = *dep_seq;
    m.sub_deps.push_back(d);
  }
  if ((*flags & kFlagTyped) != 0) {
    const auto spec = r.u8();
    const auto opcode = r.u8();
    const auto arg2 = r.i64();
    // The trailer must name a known spec and a mutating opcode (only
    // mutations travel as WriteUpdates), and must not be the degenerate
    // register triple — that must ship flag-less for byte-identity.
    if (!spec || !opcode || !arg2 || !valid_spec_id(*spec) ||
        !valid_opcode(*opcode) ||
        !is_mutation(static_cast<OpCode>(*opcode)) ||
        (*spec == 0 && *opcode == 0 && *arg2 == 0)) {
      return std::nullopt;
    }
    m.spec = *spec;
    m.opcode = *opcode;
    m.arg2 = *arg2;
  }
  m.sender = *sender;
  m.var = *var;
  m.value = *value;
  m.write_seq = *seq;
  m.run = *run;
  m.clock = VectorClock{std::move(*clock)};
  return m;
}

void TokenGrant::encode(ByteWriter& w) const {
  w.u64(round);
  w.u32(holder);
}

std::optional<TokenGrant> TokenGrant::decode(ByteReader& r) {
  TokenGrant m;
  const auto round = r.u64();
  const auto holder = r.u32();
  if (!round || !holder) return std::nullopt;
  m.round = *round;
  m.holder = *holder;
  return m;
}

void BatchUpdate::encode(ByteWriter& w) const {
  w.u32(sender);
  w.u64(round);
  w.u64(entries.size());
  for (const auto& e : entries) {
    w.u32(e.var);
    w.i64(e.value);
    w.u64(e.write_seq);
    w.u64(e.skipped);
  }
}

std::optional<BatchUpdate> BatchUpdate::decode(ByteReader& r) {
  BatchUpdate m;
  const auto sender = r.u32();
  const auto round = r.u64();
  const auto count = r.u64();
  // Each entry is at least 4 encoded bytes; a count beyond the remaining
  // input is malformed and must not drive the reserve below.
  if (!sender || !round || !count || *count > (1ULL << 24) ||
      *count > r.remaining()) {
    return std::nullopt;
  }
  m.sender = *sender;
  m.round = *round;
  m.entries.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    BatchEntry e;
    const auto var = r.u32();
    const auto value = r.i64();
    const auto seq = r.u64();
    const auto skipped = r.u64();
    if (!var || !value || !seq || !skipped) return std::nullopt;
    e.var = *var;
    e.value = *value;
    e.write_seq = *seq;
    e.skipped = *skipped;
    m.entries.push_back(e);
  }
  return m;
}

void CatchUpRequest::encode(ByteWriter& w) const {
  w.u32(requester);
  w.u64_vec(have.components());
}

std::optional<CatchUpRequest> CatchUpRequest::decode(ByteReader& r) {
  CatchUpRequest m;
  const auto requester = r.u32();
  auto have = r.u64_vec();
  if (!requester || !have) return std::nullopt;
  m.requester = *requester;
  m.have = VectorClock{std::move(*have)};
  return m;
}

void CatchUpReply::encode(ByteWriter& w) const {
  w.u32(replier);
  w.u64_vec(have.components());
  w.u64(writes.size());
  for (const auto& wu : writes) wu.encode(w);
}

std::optional<CatchUpReply> CatchUpReply::decode(ByteReader& r) {
  CatchUpReply m;
  const auto replier = r.u32();
  auto have = r.u64_vec();
  const auto count = r.u64();
  // A WriteUpdate encodes to well over one byte; cap by the remaining input
  // so a forged count cannot drive the reserve below.
  if (!replier || !have || !count || *count > (1ULL << 24) ||
      *count > r.remaining()) {
    return std::nullopt;
  }
  m.replier = *replier;
  m.have = VectorClock{std::move(*have)};
  m.writes.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto wu = WriteUpdate::decode(r);
    if (!wu) return std::nullopt;
    m.writes.push_back(std::move(*wu));
  }
  return m;
}

void encode_message(const Message& m, ByteWriter& w) {
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, WriteUpdate>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kWriteUpdate));
        } else if constexpr (std::is_same_v<T, TokenGrant>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kTokenGrant));
        } else if constexpr (std::is_same_v<T, BatchUpdate>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kBatchUpdate));
        } else if constexpr (std::is_same_v<T, CatchUpRequest>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kCatchUpRequest));
        } else {
          w.u8(static_cast<std::uint8_t>(MsgType::kCatchUpReply));
        }
        msg.encode(w);
      },
      m);
}

void encode_message(const WriteUpdate& m, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(MsgType::kWriteUpdate));
  m.encode(w);
}

std::vector<std::uint8_t> encode_message(const Message& m) {
  ByteWriter w;
  encode_message(m, w);
  return std::move(w).take();
}

std::optional<Message> decode_message(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  const auto tag = r.u8();
  if (!tag) return std::nullopt;
  std::optional<Message> out;
  switch (static_cast<MsgType>(*tag)) {
    case MsgType::kWriteUpdate: {
      auto m = WriteUpdate::decode(r);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kTokenGrant: {
      auto m = TokenGrant::decode(r);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kBatchUpdate: {
      auto m = BatchUpdate::decode(r);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kCatchUpRequest: {
      auto m = CatchUpRequest::decode(r);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kCatchUpReply: {
      auto m = CatchUpReply::decode(r);
      if (m) out = std::move(*m);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!out || !r.exhausted()) return std::nullopt;
  return out;
}

}  // namespace dsm
