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
        if (rec.op.proc >= history.n_procs() ||
            rec.op.var >= history.n_vars()) {
          return false;
        }
        recorder.restore_op(rec.op);
        break;
      case LogRecord::Kind::kEvent:
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
