#include "dsm/protocols/run_recorder.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

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

RunRecorder::RunRecorder(std::size_t n_procs, std::size_t n_vars, ClockFn clock)
    : history_(n_procs, n_vars), clock_(std::move(clock)) {}

void RunRecorder::push(RunEvent e) {
  e.order = next_order_++;
  e.time = clock_ ? clock_() : 0;
  events_.push_back(std::move(e));
  if (sink_ != nullptr) sink_->accept_event(events_.back());
}

WriteId RunRecorder::record_write(ProcessId p, VarId x, Value v) {
  const std::scoped_lock lock(mu_);
  const WriteId id = history_.add_write(p, x, v);
  if (sink_ != nullptr) sink_->accept_write(p, x, v, id);
  return id;
}

void RunRecorder::record_read(ProcessId p, VarId x, const ReadResult& r) {
  const std::scoped_lock lock(mu_);
  history_.add_read(p, x, r.value, r.writer);
  if (sink_ != nullptr) sink_->accept_read(p, x, r.value, r.writer);
}

WriteId RunRecorder::record_mutation(ProcessId p, VarId x, std::uint8_t spec,
                                     std::uint8_t opcode, Value arg,
                                     Value arg2) {
  const std::scoped_lock lock(mu_);
  const WriteId id =
      history_.add_mutation(p, x, static_cast<SpecId>(spec),
                            static_cast<OpCode>(opcode), arg, arg2);
  if (sink_ != nullptr) sink_->accept_write(p, x, arg, id);
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
  if (sink_ != nullptr) sink_->accept_read(p, x, returned, from);
}

void RunRecorder::set_sink(EventSink* sink) {
  const std::scoped_lock lock(mu_);
  sink_ = sink;
}

void RunRecorder::restore_write(ProcessId p, VarId x, Value v) {
  const std::scoped_lock lock(mu_);
  (void)history_.add_write(p, x, v);
}

void RunRecorder::restore_read(ProcessId p, VarId x, Value v, WriteId from) {
  const std::scoped_lock lock(mu_);
  history_.add_read(p, x, v, from);
}

void RunRecorder::restore_event(const RunEvent& e) {
  const std::scoped_lock lock(mu_);
  events_.push_back(e);
  if (e.order >= next_order_) next_order_ = e.order + 1;
}

void RunRecorder::on_send(ProcessId at, const WriteUpdate& m) {
  const std::scoped_lock lock(mu_);
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kSend;
  e.write = WriteId{m.sender, m.write_seq};
  e.var = m.var;
  e.value = m.value;
  e.clock = m.clock;
  push(std::move(e));
}

void RunRecorder::on_receipt(ProcessId at, const WriteUpdate& m) {
  const std::scoped_lock lock(mu_);
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kReceipt;
  e.write = WriteId{m.sender, m.write_seq};
  e.var = m.var;
  e.value = m.value;
  e.clock = m.clock;
  push(std::move(e));
}

void RunRecorder::on_apply(ProcessId at, WriteId w, bool delayed) {
  const std::scoped_lock lock(mu_);
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kApply;
  e.write = w;
  e.delayed = delayed;
  push(std::move(e));
}

void RunRecorder::on_return(ProcessId at, VarId x, Value v, WriteId from) {
  const std::scoped_lock lock(mu_);
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kReturn;
  e.var = x;
  e.value = v;
  e.write = from;
  push(std::move(e));
}

void RunRecorder::on_skip(ProcessId at, WriteId w, WriteId by) {
  const std::scoped_lock lock(mu_);
  RunEvent e;
  e.at = at;
  e.kind = EvKind::kSkip;
  e.write = w;
  e.other = by;
  push(std::move(e));
}

std::vector<RunEvent> RunRecorder::events_at(ProcessId p) const {
  const std::scoped_lock lock(mu_);
  std::vector<RunEvent> out;
  for (const auto& e : events_) {
    if (e.at == p) out.push_back(e);
  }
  return out;
}

std::optional<RunEvent> RunRecorder::find(EvKind kind, ProcessId at,
                                          WriteId w) const {
  const std::scoped_lock lock(mu_);
  for (const auto& e : events_) {
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
  return dsm::sequence_str(events_, p);
}

}  // namespace dsm
