#include "dsm/net/control.h"

#include <string>

#include "dsm/codec/codec.h"

namespace dsm {

namespace {

/// A control script travels inline; anything bigger than this is a driver bug
/// (the real workloads are tens of steps), so treat it as malformed input.
constexpr std::uint64_t kMaxScriptSteps = 1u << 16;

void encode_stats(ByteWriter& w, const NodeNetStats& s) {
  for_each_stat(s, [&w](const char*, std::uint64_t v) { w.u64(v); });
}

/// Decode failures surface through r.ok(), checked once by the caller.
NodeNetStats decode_stats(ByteReader& r) {
  NodeNetStats s;
  for_each_stat(s, [&r](const char*, std::uint64_t& v) {
    v = r.u64().value_or(0);
  });
  return s;
}

bool known_op(std::uint8_t raw) {
  switch (static_cast<ControlOp>(raw)) {
    case ControlOp::kPing:
    case ControlOp::kRun:
    case ControlOp::kQueryDone:
    case ControlOp::kFetchLog:
    case ControlOp::kFetchStats:
    case ControlOp::kKillConn:
    case ControlOp::kShutdown:
    case ControlOp::kQueryQuiescent:
    case ControlOp::kSetFaults:
    case ControlOp::kAck:
    case ControlOp::kPong:
    case ControlOp::kDoneReply:
    case ControlOp::kLogReply:
    case ControlOp::kStatsReply:
    case ControlOp::kError:
      return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint8_t> encode_control(const ControlMessage& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.op));
  switch (m.op) {
    case ControlOp::kRun:
      w.u64(m.time_scale);
      w.u64(m.script.size());
      for (const ScriptStep& step : m.script) {
        w.u64(step.delay);
        w.u8(static_cast<std::uint8_t>(step.kind));
        w.u32(step.var);
        w.i64(step.value);
        w.u64(step.poll_every);
        w.u64(step.timeout);
        w.u8(step.spec);
        w.u8(step.opcode);
        w.i64(step.arg2);
      }
      break;
    case ControlOp::kKillConn:
      w.u32(m.peer);
      break;
    case ControlOp::kFetchLog:
      w.u64(m.cursor);
      break;
    case ControlOp::kSetFaults:
      w.bytes(m.faults.encode());
      break;
    case ControlOp::kPong:
    case ControlOp::kDoneReply:
      w.u8(m.flag ? 1 : 0);
      break;
    case ControlOp::kLogReply:
      w.u64(m.cursor);
      w.u8(m.flag ? 1 : 0);
      w.u64(m.bytes.size());
      w.bytes(m.bytes);
      break;
    case ControlOp::kError:
      w.str(m.text);
      break;
    case ControlOp::kStatsReply:
      encode_stats(w, m.stats);
      break;
    case ControlOp::kPing:
    case ControlOp::kQueryDone:
    case ControlOp::kFetchStats:
    case ControlOp::kShutdown:
    case ControlOp::kQueryQuiescent:
    case ControlOp::kAck:
      break;  // op byte only
  }
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_control_reply(const ControlMessage& m) {
  const auto body = encode_control(m);
  if (body.size() + 1 <= kMaxFrameBytes) {
    return encode_frame(FrameKind::kControl, body);
  }
  ControlMessage err;
  err.op = ControlOp::kError;
  err.text = "reply of " + std::to_string(body.size()) +
             " bytes exceeds the frame cap kMaxFrameBytes = " +
             std::to_string(kMaxFrameBytes) + " bytes";
  return encode_frame(FrameKind::kControl, encode_control(err));
}

std::optional<ControlMessage> decode_control(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto raw_op = r.u8();
  if (!raw_op || !known_op(*raw_op)) return std::nullopt;
  ControlMessage m;
  m.op = static_cast<ControlOp>(*raw_op);
  switch (m.op) {
    case ControlOp::kRun: {
      m.time_scale = r.u64().value_or(1);
      const std::uint64_t n = r.u64().value_or(0);
      if (!r.ok() || n > kMaxScriptSteps) return std::nullopt;
      m.script.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        ScriptStep step;
        step.delay = r.u64().value_or(0);
        const auto kind = r.u8();
        if (!kind || *kind > static_cast<std::uint8_t>(StepKind::kObserve)) {
          return std::nullopt;
        }
        step.kind = static_cast<StepKind>(*kind);
        step.var = r.u32().value_or(0);
        step.value = r.i64().value_or(0);
        step.poll_every = r.u64().value_or(0);
        step.timeout = r.u64().value_or(0);
        step.spec = r.u8().value_or(0);
        step.opcode = r.u8().value_or(0);
        step.arg2 = r.i64().value_or(0);
        if (!valid_spec_id(step.spec) || !valid_opcode(step.opcode)) {
          return std::nullopt;
        }
        if (!r.ok()) return std::nullopt;
        m.script.push_back(step);
      }
      break;
    }
    case ControlOp::kKillConn:
      m.peer = r.u32().value_or(0);
      break;
    case ControlOp::kFetchLog:
      m.cursor = r.u64().value_or(0);
      break;
    case ControlOp::kSetFaults: {
      auto plan = NetFaultPlan::decode(r.rest());
      if (!plan) return std::nullopt;
      m.faults = std::move(*plan);
      break;
    }
    case ControlOp::kPong:
    case ControlOp::kDoneReply: {
      const auto flag = r.u8();
      if (!flag || *flag > 1) return std::nullopt;
      m.flag = *flag == 1;
      break;
    }
    case ControlOp::kLogReply: {
      m.cursor = r.u64().value_or(0);
      const std::uint8_t more = r.u8().value_or(2);
      const auto records =
          r.take(static_cast<std::size_t>(r.u64().value_or(0)));
      if (!records || more > 1) return std::nullopt;
      m.flag = more == 1;
      m.bytes.assign(records->begin(), records->end());
      break;
    }
    case ControlOp::kError: {
      auto text = r.str();
      if (!text) return std::nullopt;
      m.text = std::move(*text);
      break;
    }
    case ControlOp::kStatsReply:
      m.stats = decode_stats(r);
      break;
    case ControlOp::kPing:
    case ControlOp::kQueryDone:
    case ControlOp::kFetchStats:
    case ControlOp::kShutdown:
    case ControlOp::kQueryQuiescent:
    case ControlOp::kAck:
      break;
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

}  // namespace dsm
