#include "dsm/protocols/run_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"
#include "dsm/common/format.h"

namespace dsm {

const char* to_string(EvKind k) noexcept {
  switch (k) {
    case EvKind::kSend: return "send";
    case EvKind::kReceipt: return "receipt";
    case EvKind::kApply: return "apply";
    case EvKind::kReturn: return "return";
    case EvKind::kSkip: return "skip";
  }
  return "?";
}

std::string event_to_string(const RunEvent& e) {
  char buf[128];
  switch (e.kind) {
    case EvKind::kReturn:
      std::snprintf(buf, sizeof buf, "return_%u(x%u,%" PRId64 ")", e.at + 1,
                    e.var + 1, e.value);
      return buf;
    case EvKind::kSkip:
      std::snprintf(buf, sizeof buf, "skip_%u(%s by %s)", e.at + 1,
                    to_string(e.write).c_str(), to_string(e.other).c_str());
      return buf;
    default:
      std::snprintf(buf, sizeof buf, "%s_%u(%s)", to_string(e.kind), e.at + 1,
                    to_string(e.write).c_str());
      return buf;
  }
}

namespace {

enum : std::uint8_t { kOp = 1, kEvent = 2, kIncarnation = 3, kTypedOp = 4 };

void encode_op(ByteWriter& w, const Operation& op) {
  const bool typed = op.spec != SpecId::kRegister;
  w.u8(typed ? kTypedOp : kOp);
  w.u8(op.is_write() ? 1 : 0);
  w.u32(op.proc);
  w.u32(op.var);
  w.i64(op.value);
  w.u32(op.write_id.proc);
  w.u64(op.write_id.seq);
  if (typed) {
    w.u8(static_cast<std::uint8_t>(op.spec));
    w.u8(static_cast<std::uint8_t>(op.opcode));
    w.i64(op.arg2);
    w.u64_vec(op.visible);
  }
}

/// `clock` stands in for e.clock, so the observer path never copies a
/// WriteUpdate's clock into a RunEvent just to encode it.
void encode_event(ByteWriter& w, const RunEvent& e,
                  std::span<const std::uint64_t> clock) {
  w.u8(kEvent);
  w.u64(e.order);
  w.u64(e.time);
  w.u32(e.at);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u32(e.write.proc);
  w.u64(e.write.seq);
  w.u32(e.other.proc);
  w.u64(e.other.seq);
  w.u32(e.var);
  w.i64(e.value);
  w.u8(e.delayed ? 1 : 0);
  w.u64_vec(clock);
}

// Worst-case encoded sizes, field by field as encode_op / encode_event
// write them.  A bound that fell short would trip the bounded ByteWriter's
// contract check, never write past the buffer.
constexpr std::size_t kIncarnationBound = 1 + kMaxVarintBytes;

std::size_t op_bound(const Operation& op) {
  constexpr std::size_t kRegister = 2 + 3 * kMaxVarint32Bytes + 2 * kMaxVarintBytes;
  if (op.spec == SpecId::kRegister) return kRegister;
  return kRegister + 2 + (2 + op.visible.size()) * kMaxVarintBytes;
}

std::size_t event_bound(std::span<const std::uint64_t> clock) {
  return 3 + 4 * kMaxVarint32Bytes + (6 + clock.size()) * kMaxVarintBytes;
}

/// Decode failures surface through r.ok(), checked once at the end.
bool decode_op(ByteReader& r, bool typed, Operation& op) {
  const std::uint8_t is_write = r.u8().value_or(2);
  op.kind = is_write == 1 ? OpKind::kWrite : OpKind::kRead;
  op.proc = r.u32().value_or(0);
  op.var = r.u32().value_or(0);
  op.value = r.i64().value_or(0);
  op.write_id.proc = r.u32().value_or(0);
  op.write_id.seq = r.u64().value_or(0);
  if (typed) {
    const std::uint8_t spec = r.u8().value_or(0);
    const std::uint8_t opcode = r.u8().value_or(kOpCodeCount);
    op.arg2 = r.i64().value_or(0);
    auto visible = r.u64_vec();
    if (!visible || spec == static_cast<std::uint8_t>(SpecId::kRegister) ||
        !valid_spec_id(spec) || !valid_opcode(opcode)) {
      return false;
    }
    op.spec = static_cast<SpecId>(spec);
    op.opcode = static_cast<OpCode>(opcode);
    if (is_mutation(op.opcode) != (is_write == 1)) return false;
    op.visible = std::move(*visible);
  }
  return r.ok() && is_write <= 1;
}

bool decode_event(ByteReader& r, RunEvent& e) {
  e.order = r.u64().value_or(0);
  e.time = r.u64().value_or(0);
  e.at = r.u32().value_or(0);
  const std::uint8_t kind = r.u8().value_or(0xff);
  e.write.proc = r.u32().value_or(0);
  e.write.seq = r.u64().value_or(0);
  e.other.proc = r.u32().value_or(0);
  e.other.seq = r.u64().value_or(0);
  e.var = r.u32().value_or(0);
  e.value = r.i64().value_or(0);
  const std::uint8_t delayed = r.u8().value_or(2);
  auto clock = r.u64_vec();
  if (!clock || kind > static_cast<std::uint8_t>(EvKind::kSkip) ||
      delayed > 1) {
    return false;
  }
  e.kind = static_cast<EvKind>(kind);
  e.delayed = delayed == 1;
  e.clock = VectorClock(std::move(*clock));
  return r.ok();
}

}  // namespace

bool decode_log_record(ByteReader& r, LogRecord& out) {
  const std::uint8_t tag = r.u8().value_or(0);
  switch (tag) {
    case kOp:
    case kTypedOp:
      out.kind = LogRecord::Kind::kOp;
      out.op = Operation{};
      return decode_op(r, tag == kTypedOp, out.op);
    case kEvent:
      out.kind = LogRecord::Kind::kEvent;
      out.event = RunEvent{};
      return decode_event(r, out.event);
    case kIncarnation:
      out.kind = LogRecord::Kind::kIncarnation;
      out.boot = r.u64().value_or(0);
      return r.ok();
    default:
      return false;
  }
}

RunRecorder::RunRecorder(std::size_t n_procs, std::size_t n_vars, ClockFn clock)
    : history_(n_procs, n_vars), clock_(std::move(clock)) {}

template <class Encode>
void RunRecorder::append(std::size_t bound, Encode&& encode) {
  if (!chunks_.empty() && chunks_.back().spare() >= bound) {
    Chunk& chunk = chunks_.back();
    ByteWriter w(std::span<std::uint8_t>(chunk.data.get() + chunk.size, bound));
    encode(w);
    chunk.size += w.size();
    log_bytes_ += w.size();
    return;
  }
  // The record may not fit what is left of the open chunk: encode it aside,
  // then place it by its actual size, so where a chunk closes depends only
  // on the records' actual sizes.
  if (stage_.size() < bound) stage_.resize(bound);
  ByteWriter w(std::span<std::uint8_t>(stage_.data(), bound));
  encode(w);
  const std::size_t size = w.size();
  if (chunks_.empty() || chunks_.back().spare() < size) {
    Chunk& chunk = chunks_.emplace_back();
    chunk.start = log_bytes_;
    chunk.capacity = std::max(kChunkBytes, size);
    chunk.data = std::make_unique_for_overwrite<std::uint8_t[]>(chunk.capacity);
  }
  Chunk& chunk = chunks_.back();
  std::memcpy(chunk.data.get() + chunk.size, stage_.data(), size);
  chunk.size += size;
  log_bytes_ += size;
}

void RunRecorder::log_last_op() {
  const Operation& op = history_.all_ops().back();
  append(op_bound(op), [&op](ByteWriter& w) { encode_op(w, op); });
}

void RunRecorder::log_event(const RunEvent& e,
                            std::span<const std::uint64_t> clock) {
  append(event_bound(clock),
         [&](ByteWriter& w) { encode_event(w, e, clock); });
}

void RunRecorder::push(RunEvent e, std::span<const std::uint64_t> clock) {
  const std::scoped_lock lock(mu_);
  e.order = next_order_++;
  e.time = clock_ ? clock_() : 0;
  log_event(e, clock);
}

WriteId RunRecorder::record_write(ProcessId p, VarId x, Value v) {
  const std::scoped_lock lock(mu_);
  const WriteId id = history_.add_write(p, x, v);
  log_last_op();
  return id;
}

void RunRecorder::record_read(ProcessId p, VarId x, const ReadResult& r) {
  const std::scoped_lock lock(mu_);
  history_.add_read(p, x, r.value, r.writer);
  log_last_op();
}

WriteId RunRecorder::record_mutation(ProcessId p, VarId x, std::uint8_t spec,
                                     std::uint8_t opcode, Value arg,
                                     Value arg2) {
  const std::scoped_lock lock(mu_);
  const WriteId id =
      history_.add_mutation(p, x, static_cast<SpecId>(spec),
                            static_cast<OpCode>(opcode), arg, arg2);
  log_last_op();
  return id;
}

void RunRecorder::record_accessor(ProcessId p, VarId x, std::uint8_t spec,
                                  std::uint8_t opcode, Value arg,
                                  Value returned, WriteId from,
                                  std::vector<std::uint64_t> visible) {
  const std::scoped_lock lock(mu_);
  history_.add_accessor(p, x, static_cast<SpecId>(spec),
                        static_cast<OpCode>(opcode), arg, returned, from,
                        std::move(visible));
  log_last_op();
}

void RunRecorder::record_incarnation(std::uint64_t boot) {
  const std::scoped_lock lock(mu_);
  append(kIncarnationBound, [boot](ByteWriter& w) {
    w.u8(kIncarnation);
    w.u64(boot);
  });
}

void RunRecorder::restore_op(const Operation& op) {
  const std::scoped_lock lock(mu_);
  history_.append(op);
  log_last_op();
}

void RunRecorder::restore_event(const RunEvent& e) {
  const std::scoped_lock lock(mu_);
  log_event(e, e.clock.components());
  if (e.order >= next_order_) next_order_ = e.order + 1;
}

void RunRecorder::on_send(ProcessId at, const WriteUpdate& m) {
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kSend;
  e.write = WriteId{m.sender, m.write_seq};
  e.var = m.var;
  e.value = m.value;
  push(e, m.clock.components());
}

void RunRecorder::on_receipt(ProcessId at, const WriteUpdate& m) {
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kReceipt;
  e.write = WriteId{m.sender, m.write_seq};
  e.var = m.var;
  e.value = m.value;
  push(e, m.clock.components());
}

void RunRecorder::on_apply(ProcessId at, WriteId w, bool delayed) {
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kApply;
  e.write = w;
  e.delayed = delayed;
  push(e, {});
}

void RunRecorder::on_return(ProcessId at, VarId x, Value v, WriteId from) {
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kReturn;
  e.var = x;
  e.value = v;
  e.write = from;
  push(e, {});
}

void RunRecorder::on_skip(ProcessId at, WriteId w, WriteId by) {
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kSkip;
  e.write = w;
  e.other = by;
  push(e, {});
}

std::size_t RunRecorder::chunk_of(std::uint64_t offset) const {
  const auto after = std::upper_bound(
      chunks_.begin(), chunks_.end(), offset,
      [](std::uint64_t o, const Chunk& c) { return o < c.start; });
  return static_cast<std::size_t>(after - chunks_.begin()) - 1;
}

std::uint64_t RunRecorder::log_bytes() const {
  const std::scoped_lock lock(mu_);
  return log_bytes_;
}

std::uint64_t RunRecorder::copy_chunk(std::uint64_t from,
                                      std::vector<std::uint8_t>& out) const {
  const std::scoped_lock lock(mu_);
  DSM_REQUIRE(from <= log_bytes_);
  if (from == log_bytes_) return from;
  const Chunk& chunk = chunks_[chunk_of(from)];
  const std::span<const std::uint8_t> tail =
      chunk.bytes().subspan(from - chunk.start);
  out.insert(out.end(), tail.begin(), tail.end());
  return chunk.start + chunk.size;
}

void RunRecorder::refresh_view() const {
  LogRecord rec;
  while (view_end_ < log_bytes_) {
    const Chunk& chunk = chunks_[chunk_of(view_end_)];
    ByteReader r(chunk.bytes().subspan(view_end_ - chunk.start));
    while (r.remaining() > 0) {
      DSM_REQUIRE(decode_log_record(r, rec));
      if (rec.kind == LogRecord::Kind::kEvent) {
        view_.push_back(std::move(rec.event));
      }
    }
    view_end_ = chunk.start + chunk.size;
  }
}

const std::vector<RunEvent>& RunRecorder::events() const {
  const std::scoped_lock lock(mu_);
  refresh_view();
  return view_;
}

ImportedRun RunRecorder::take_run() && {
  const std::scoped_lock lock(mu_);
  refresh_view();
  return ImportedRun{std::move(history_), std::move(view_)};
}

std::vector<RunEvent> RunRecorder::events_at(ProcessId p) const {
  const std::scoped_lock lock(mu_);
  refresh_view();
  std::vector<RunEvent> out;
  for (const auto& e : view_) {
    if (e.at == p) out.push_back(e);
  }
  return out;
}

std::optional<RunEvent> RunRecorder::find(EvKind kind, ProcessId at,
                                          WriteId w) const {
  const std::scoped_lock lock(mu_);
  refresh_view();
  for (const auto& e : view_) {
    if (e.kind == kind && e.at == at && e.write == w) return e;
  }
  return std::nullopt;
}

std::string sequence_str(std::span<const RunEvent> events, ProcessId p) {
  std::vector<std::string> parts;
  for (const auto& e : events) {
    if (e.at == p) parts.push_back(event_to_string(e));
  }
  return join(parts, " <_" + std::to_string(p + 1) + " ");
}

std::string RunRecorder::sequence_str(ProcessId p) const {
  const std::scoped_lock lock(mu_);
  refresh_view();
  return dsm::sequence_str(view_, p);
}

}  // namespace dsm
