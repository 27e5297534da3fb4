// optcm — run recording: the bridge from protocol executions to the paper's
// analysis machinery.
//
// A RunRecorder is a ProtocolObserver that logs every send / receipt / apply /
// return / skip event with a global sequence number and a caller-supplied
// timestamp, and simultaneously builds the GlobalHistory of the run (writes
// in program order, reads with their ↦ro writer).  The optimality auditor
// consumes exactly this pair (events, history) to evaluate Definitions 3–5,
// and the figure renderers pretty-print the event log in the paper's
// "receipt_3(w_2(x_2)b) <_3 …" style.
//
// The log is kept encoded (see RunRecorder below): the records a durable
// node commits to its WAL and a driver fetches by cursor are the recorder's
// own bytes, and events() decodes them on demand.
//
// Thread-safe: CausalMemory appends from n replica threads; a mutex
// serializes appends (the simulator pays the uncontended-lock cost, which is
// noise at simulation scale).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsm/codec/codec.h"
#include "dsm/history/history.h"
#include "dsm/protocols/protocol.h"

namespace dsm {

enum class EvKind : std::uint8_t { kSend, kReceipt, kApply, kReturn, kSkip };

[[nodiscard]] const char* to_string(EvKind k) noexcept;

struct RunEvent {
  std::uint64_t order = 0;  ///< global sequence number (total order of observation)
  std::uint64_t time = 0;   ///< caller clock (µs: simulated or wall-clock)
  ProcessId at = 0;         ///< process where the event occurred
  EvKind kind = EvKind::kSend;
  WriteId write;            ///< subject write (send/receipt/apply/skip)
  WriteId other;            ///< skip: the superseding write
  VarId var = 0;            ///< return events
  Value value = kBottom;    ///< return events
  bool delayed = false;     ///< apply events: buffered at receipt (Def. 3)
  /// send/receipt events: the piggybacked vector (Write_co for OptP, the FM
  /// clock for ANBKH).  The auditor derives protocol enabling sets from it.
  VectorClock clock;

  friend bool operator==(const RunEvent&, const RunEvent&) = default;
};

/// "apply_3(w1^2)" — paper-style event label.
[[nodiscard]] std::string event_to_string(const RunEvent& e);

/// Paper-style one-line sequence of the events at process p, in the order
/// given: "receipt_3(w2^1) <_3 apply_3(w2^1) <_3 …".  Timestamps and global
/// order numbers do not appear, so two runs of the same workload — simulated
/// or over real sockets, live or imported from a trace — compare
/// byte-for-byte exactly when their per-process observer behaviour matches.
[[nodiscard]] std::string sequence_str(std::span<const RunEvent> events,
                                       ProcessId p);

/// One decoded record of a run log (the codec is described at RunRecorder).
struct LogRecord {
  enum class Kind : std::uint8_t { kOp, kEvent, kIncarnation };
  Kind kind = Kind::kOp;
  Operation op;            ///< kOp: as GlobalHistory stores it (po_index unset)
  RunEvent event;          ///< kEvent: with its recorded order and time
  std::uint64_t boot = 0;  ///< kIncarnation (RunRecorder::record_incarnation)
};

/// Decodes the record at the front of `r` into `out`; false on malformed
/// bytes.  A chunk of a recorder's log, a WAL record and a kFetchLog reply
/// are each a run of records: decode while r.remaining() > 0.
[[nodiscard]] bool decode_log_record(ByteReader& r, LogRecord& out);

/// A run read back from a log (fetched from a node, imported from an
/// archive, or merged from several nodes'): its history and its events.
struct ImportedRun {
  GlobalHistory history;
  std::vector<RunEvent> events;
};

/// The recorder keeps its log encoded: every history record and observer
/// event is appended as one record of this codec (ByteWriter varints) into
/// fixed-size chunks that never move, so an event costs ~20 B instead of a
/// RunEvent with a heap-allocated clock.  The same bytes are what a durable
/// node commits to its WAL (dsm/storage/wal_sink.h) and what kFetchLog
/// ships by cursor; events() decodes them on demand.
///
/// A record is encoded once, by the one encoder of its kind, through a
/// bounded ByteWriter: straight into the open chunk's spare bytes when the
/// record's worst-case size fits there, else into a staging buffer of that
/// size and then into the chunk its actual size fits.  Where a chunk closes
/// therefore depends only on the records' actual sizes.
///
/// Records, each tagged with a kind byte:
///   kOp          u8(1)  u8(is_write) u32(p) u32(var) i64(value)
///                u32(writer.proc) u64(writer.seq)      — register ops
///   kEvent       u8(2)  u64(order) u64(time) u32(at) u8(kind)
///                u32(write.proc) u64(write.seq) u32(other.proc)
///                u64(other.seq) u32(var) i64(value) u8(delayed)
///                u64_vec(clock)
///   kIncarnation u8(3)  u64(boot)
///   kTypedOp     u8(4)  the kOp fields, then u8(spec) u8(opcode)
///                i64(arg2) u64_vec(visible)             — typed-object ops
/// A record never straddles two chunks.  kTypedOp never reaches a WAL:
/// typed objects and recoverable mode exclude each other.
class RunRecorder final : public ProtocolObserver {
 public:
  using ClockFn = std::function<std::uint64_t()>;

  /// Bytes per log chunk (a record longer than this gets a chunk of its own).
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// `clock` supplies event timestamps; defaults to a constant 0 (pure
  /// logical order).
  RunRecorder(std::size_t n_procs, std::size_t n_vars, ClockFn clock = {});

  // -- history building (called by the workload driver) --------------------
  /// Record that process p is about to issue its next write of v to x.
  WriteId record_write(ProcessId p, VarId x, Value v);
  /// Record a completed read.
  void record_read(ProcessId p, VarId x, const ReadResult& r);
  /// Record that process p is about to issue a typed mutation on x (shares
  /// write numbering with record_write; raw spec/opcode bytes as on the
  /// wire).
  WriteId record_mutation(ProcessId p, VarId x, std::uint8_t spec,
                          std::uint8_t opcode, Value arg, Value arg2);
  /// Record a completed typed accessor: it returned `returned` for query
  /// operand `arg`; `from` tags the last locally applied mutation and
  /// `visible` snapshots the ObjectStore's per-sender applied counts.
  void record_accessor(ProcessId p, VarId x, std::uint8_t spec,
                       std::uint8_t opcode, Value arg, Value returned,
                       WriteId from, std::vector<std::uint64_t> visible);
  /// Log a process boot (incarnation counter), after a respawn's WAL replay,
  /// so a node's one log shows where each incarnation began.  Not part of
  /// the history or the events.
  void record_incarnation(std::uint64_t boot);

  /// Replay entry points: re-ingest a previously recorded run verbatim.
  /// History records regenerate the same WriteIds (add_write assigns seqs
  /// deterministically); events keep their recorded order/time, and
  /// `next_order_` advances past them so live recording resumes after the
  /// replayed prefix.  Both append the same record the live path did.
  void restore_op(const Operation& op);
  void restore_event(const RunEvent& e);

  // -- ProtocolObserver ----------------------------------------------------
  void on_send(ProcessId at, const WriteUpdate& m) override;
  void on_receipt(ProcessId at, const WriteUpdate& m) override;
  void on_apply(ProcessId at, WriteId w, bool delayed) override;
  void on_return(ProcessId at, VarId x, Value v, WriteId from) override;
  void on_skip(ProcessId at, WriteId w, WriteId by) override;

  // -- the encoded log ---------------------------------------------------------
  /// Length of the log in bytes; every record ends at an offset ≤ this.
  [[nodiscard]] std::uint64_t log_bytes() const;
  /// Append the log's bytes from offset `from` to the end of the chunk that
  /// holds it onto `out`, and return the offset after them (log_bytes() once
  /// the log is drained).  0 and every offset returned are record
  /// boundaries.  \pre from <= log_bytes()
  std::uint64_t copy_chunk(std::uint64_t from,
                           std::vector<std::uint8_t>& out) const;

  // -- results ---------------------------------------------------------------
  [[nodiscard]] const GlobalHistory& history() const noexcept { return history_; }
  /// Every event, decoded from the log.  Decoding is incremental: a call
  /// decodes only what was appended since the previous one.  Safe against
  /// concurrent appends.  The next call that reads events (this one,
  /// events_at, find, sequence_str) may extend the view, which invalidates
  /// the reference returned here.
  [[nodiscard]] const std::vector<RunEvent>& events() const;

  /// Move the history and every decoded event out, for a recorder filled
  /// from a log only to be read once.  Only destruction may follow.
  [[nodiscard]] ImportedRun take_run() &&;

  /// Events that occurred at process p, in their global observation order.
  [[nodiscard]] std::vector<RunEvent> events_at(ProcessId p) const;

  /// The first event of the given kind for (write, process), if any.
  [[nodiscard]] std::optional<RunEvent> find(EvKind kind, ProcessId at,
                                             WriteId w) const;

  /// Paper-style one-line sequence for process p:
  /// "receipt_3(w2^1) <_3 apply_3(w2^1) <_3 …".
  [[nodiscard]] std::string sequence_str(ProcessId p) const;

 private:
  struct Chunk {
    std::uint64_t start = 0;                ///< log offset of data[0]
    std::unique_ptr<std::uint8_t[]> data;   ///< `capacity` bytes, never moves
    std::size_t size = 0;                   ///< bytes of records in data
    std::size_t capacity = 0;
    [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
      return {data.get(), size};
    }
    [[nodiscard]] std::size_t spare() const noexcept { return capacity - size; }
  };

  /// Called under mu_: encode the newest history op / an event (with
  /// `clock` standing in for e.clock), and append the record.
  void log_last_op();
  void log_event(const RunEvent& e, std::span<const std::uint64_t> clock);
  /// Stamp order and time onto a live event, then log it (takes mu_).
  void push(RunEvent e, std::span<const std::uint64_t> clock);
  /// Append the record `encode(ByteWriter&)` writes, at most `bound` bytes:
  /// straight into the open chunk when `bound` fits there, else through
  /// stage_ and into whichever chunk its actual size fits.
  template <class Encode>
  void append(std::size_t bound, Encode&& encode);
  /// Decode what was appended since the last call into view_ (under mu_).
  void refresh_view() const;
  [[nodiscard]] std::size_t chunk_of(std::uint64_t offset) const;

  mutable std::mutex mu_;
  GlobalHistory history_;
  ClockFn clock_;
  std::uint64_t next_order_ = 0;
  std::vector<Chunk> chunks_;
  std::uint64_t log_bytes_ = 0;
  std::vector<std::uint8_t> stage_;  ///< a record that may not fit its chunk
  mutable std::vector<RunEvent> view_;
  mutable std::uint64_t view_end_ = 0;  ///< log offset decoded into view_
};

}  // namespace dsm
