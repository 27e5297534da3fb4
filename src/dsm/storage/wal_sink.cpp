#include "dsm/storage/wal_sink.h"

namespace dsm {

WalIoError WalLogCommitter::commit() {
  const std::uint64_t end = log_->log_bytes();
  if (committed_ == end) return WalIoError::kNone;
  record_.clear();
  for (std::uint64_t at = committed_; at < end;) {
    at = log_->copy_chunk(at, record_);
  }
  const WalIoError err = wal_->append(record_);
  // kWrite/kNoSpace: the record did not land; the bytes stay uncommitted so
  // the next commit (or the snapshot-forcing degradation path) retries them.
  if (err != WalIoError::kWrite && err != WalIoError::kNoSpace) {
    committed_ += record_.size();
  }
  return err;
}

namespace {

/// A vector with one entry per process, or none: a clock, a visible set.
bool fits_procs(std::size_t size, const GlobalHistory& history) {
  return size == 0 || size == history.n_procs();
}

/// Whether a decoded op fits the run `history` records: its process,
/// variable and writer exist, and a write carries the WriteId that
/// appending it regenerates.
bool fits(const Operation& op, const GlobalHistory& history) {
  const std::size_t n = history.n_procs();
  if (op.proc >= n || op.var >= history.n_vars() || op.write_id.proc >= n ||
      !fits_procs(op.visible.size(), history)) {
    return false;
  }
  return !op.is_write() ||
         op.write_id == WriteId{op.proc, history.write_count(op.proc) + 1};
}

/// Whether a decoded event fits: its process, variable and both writes'
/// processes exist, and its clock has one entry per process or none.
bool fits(const RunEvent& e, const GlobalHistory& history) {
  const std::size_t n = history.n_procs();
  return e.at < n && e.write.proc < n && e.other.proc < n &&
         e.var < history.n_vars() && fits_procs(e.clock.size(), history);
}

}  // namespace

bool replay_wal_record(std::span<const std::uint8_t> record,
                       RunRecorder& recorder, ReplayFilterObserver* filter,
                       std::uint64_t* last_boot) {
  const GlobalHistory& history = recorder.history();
  ByteReader r(record);
  LogRecord rec;
  while (r.remaining() > 0) {
    if (!decode_log_record(r, rec)) return false;
    switch (rec.kind) {
      case LogRecord::Kind::kOp:
        if (!fits(rec.op, history)) return false;
        recorder.restore_op(rec.op);
        break;
      case LogRecord::Kind::kEvent:
        if (!fits(rec.event, history)) return false;
        recorder.restore_event(rec.event);
        if (filter != nullptr) filter->preseed(rec.event);
        break;
      case LogRecord::Kind::kIncarnation:
        recorder.record_incarnation(rec.boot);
        if (last_boot != nullptr) *last_boot = rec.boot;
        break;
    }
  }
  return true;
}

}  // namespace dsm
