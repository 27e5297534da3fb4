#include "dsm/telemetry/telemetry.h"

#include <array>
#include <optional>
#include <unordered_map>
#include <utility>

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"

namespace dsm {

namespace {

// Encoded size of the causal metadata a WriteUpdate piggybacks beyond the
// operation itself: the vector clock plus the writing-semantics run counter.
std::uint64_t meta_bytes(const WriteUpdate& m) {
  std::uint64_t n = varint_size(m.clock.size());
  for (const std::uint64_t c : m.clock.components()) n += varint_size(c);
  n += varint_size(m.run);
  n += varint_size(m.sub_deps.size());
  for (const SubDep& d : m.sub_deps) {
    n += varint_size(d.row) + varint_size(d.col) + varint_size(d.seq);
  }
  return n;
}

}  // namespace

/// The observer tee: records protocol events, then forwards to downstream.
/// Per-node state (receipt times, resolved metric handles) is touched only
/// by that node's events, which all arrive on its own thread of control, so
/// no two threads touch the same entry.
class RunTelemetry::Tee final : public ProtocolObserver {
 public:
  Tee(RunTelemetry& t, ProtocolObserver& downstream)
      : t_(t), down_(downstream), nodes_(t.n_procs()) {}

  void on_send(ProcessId at, const WriteUpdate& m) override {
    const std::uint64_t meta = meta_bytes(m);
    counter(at, kSent).add();
    counter(at, kMeta).add(meta);
    if (!m.sub_deps.empty()) counter(at, kSubDeps).add(m.sub_deps.size());
    if (t_.trace_) {
      t_.trace_->accept({TraceKind::kSend, at, t_.now(),
                         WriteId{m.sender, m.write_seq}, m.var, m.value,
                         /*delayed=*/false, meta, m.clock});
    }
    down_.on_send(at, m);
  }

  void on_receipt(ProcessId at, const WriteUpdate& m) override {
    const std::uint64_t now = t_.now();
    counter(at, kReceived).add();
    nodes_[at].receive(WriteId{m.sender, m.write_seq}, now);
    if (t_.trace_) {
      t_.trace_->accept({TraceKind::kReceive, at, now,
                         WriteId{m.sender, m.write_seq}, m.var, m.value,
                         /*delayed=*/false, 0, m.clock});
    }
    down_.on_receipt(at, m);
  }

  void on_apply(ProcessId at, WriteId w, bool delayed) override {
    const std::uint64_t now = delayed || t_.trace_ ? t_.now() : 0;
    Node& node = nodes_[at];
    counter(at, kApplied).add();
    const std::optional<std::uint64_t> received = node.take_receipt(w);
    if (delayed) {
      counter(at, kDelayed).add();
      // The write delay of Definition 3, measured on the harness clock:
      // buffered at receipt, applied once the enabling events occurred.
      if (node.apply_delay == nullptr) {
        node.apply_delay = &t_.metrics_.summary(at, metric::kApplyDelay);
      }
      node.apply_delay->add(static_cast<double>(now - received.value_or(now)));
    }
    if (t_.trace_) {
      t_.trace_->accept({TraceKind::kApply, at, now, w, 0, kBottom, delayed, 0,
                         VectorClock{}});
    }
    down_.on_apply(at, w, delayed);
  }

  void on_return(ProcessId at, VarId x, Value v, WriteId from) override {
    counter(at, kReads).add();
    if (t_.trace_) {
      t_.trace_->accept({TraceKind::kRead, at, t_.now(), from, x, v,
                         /*delayed=*/false, 0, VectorClock{}});
    }
    down_.on_return(at, x, v, from);
  }

  void on_skip(ProcessId at, WriteId w, WriteId by) override {
    counter(at, kSkipped).add();
    // Skipped writes never apply, so their receipt entry would otherwise
    // linger; apply_delay_us deliberately measures applies only.
    (void)nodes_[at].take_receipt(w);
    if (t_.trace_) {
      t_.trace_->accept({TraceKind::kSkip, at, t_.now(), w, 0, kBottom,
                         /*delayed=*/false, by.seq, VectorClock{}});
    }
    down_.on_skip(at, w, by);
  }

 private:
  /// The counters the tee bumps, by index into kCounterNames.
  enum CounterIx : std::size_t {
    kSent, kMeta, kSubDeps, kReceived, kApplied, kDelayed, kReads, kSkipped,
    kCounterCount
  };
  static constexpr const char* kCounterNames[kCounterCount] = {
      metric::kUpdatesSent,     metric::kMetaBytes, metric::kSubDepEntries,
      metric::kUpdatesReceived, metric::kApplies,   metric::kAppliesDelayed,
      metric::kReadsIssued,     metric::kSkips};

  struct Node {
    /// Resolved on first use, so a metric the run never bumps is never
    /// registered — the registry holds exactly what it held before caching.
    std::array<Counter*, kCounterCount> counters{};
    Summary* apply_delay = nullptr;
    /// Receipt time of each write received and not yet applied or skipped.
    /// The latest receipt sits in a slot; the next receipt spills it to the
    /// map.  A write applied on receipt, the usual case, leaves the slot
    /// before that, so the map holds only writes that were buffered.
    struct Receipt {
      WriteId w;
      std::uint64_t at = 0;
    };
    std::optional<Receipt> latest;
    std::unordered_map<WriteId, std::uint64_t> receipt_at;

    void receive(WriteId w, std::uint64_t at) {
      if (latest && latest->w != w) receipt_at[latest->w] = latest->at;
      latest = Receipt{w, at};
    }
    /// The receipt time recorded for `w`, now forgotten.
    std::optional<std::uint64_t> take_receipt(WriteId w) {
      std::optional<std::uint64_t> at;
      if (!receipt_at.empty()) {
        if (const auto it = receipt_at.find(w); it != receipt_at.end()) {
          at = it->second;
          receipt_at.erase(it);
        }
      }
      if (latest && latest->w == w) {
        at = latest->at;  // newer than any spilled receipt of w
        latest.reset();
      }
      return at;
    }
  };

  Counter& counter(ProcessId at, CounterIx ix) {
    Counter*& c = nodes_[at].counters[ix];
    if (c == nullptr) c = &t_.metrics_.counter(at, kCounterNames[ix]);
    return *c;
  }

  RunTelemetry& t_;
  ProtocolObserver& down_;
  std::vector<Node> nodes_;
};

/// Per-node buffer instrumentation: depth gauge + enabling-deficit summary.
class RunTelemetry::NodeInstr final : public ProtocolInstrumentation {
 public:
  NodeInstr(RunTelemetry& t, ProcessId p)
      : depth_(t.metrics_.gauge(p, metric::kPendingDepth)),
        deficit_(t.metrics_.summary(p, metric::kEnablingDeficit)) {}

  void on_update_buffered(std::size_t depth, std::uint64_t missing) override {
    depth_.set(depth);
    deficit_.add(static_cast<double>(missing));
  }

  void on_buffer_drained(std::size_t depth) override { depth_.set(depth); }

 private:
  Gauge& depth_;
  Summary& deficit_;
};

RunTelemetry::RunTelemetry(std::size_t n_procs, Trace trace)
    : metrics_(n_procs),
      trace_(trace == Trace::kKeep ? std::make_unique<TraceBuffer>()
                                   : nullptr) {
  instr_.reserve(n_procs);
  for (std::size_t p = 0; p < n_procs; ++p)
    instr_.push_back(std::make_unique<NodeInstr>(*this, static_cast<ProcessId>(p)));
}

RunTelemetry::~RunTelemetry() = default;

const TraceBuffer& RunTelemetry::trace() const {
  DSM_REQUIRE(trace_ != nullptr && "no trace was asked for");
  return *trace_;
}

void RunTelemetry::set_clock(ClockFn clock) {
  std::lock_guard lock(clock_mu_);
  clock_ = std::move(clock);
}

std::uint64_t RunTelemetry::now() const {
  std::lock_guard lock(clock_mu_);
  return clock_ ? clock_() : 0;
}

ProtocolObserver& RunTelemetry::observe_through(ProtocolObserver& downstream) {
  tee_ = std::make_unique<Tee>(*this, downstream);
  return *tee_;
}

ProtocolInstrumentation& RunTelemetry::instrumentation(ProcessId p) {
  DSM_REQUIRE(p < instr_.size());
  return *instr_[p];
}

void RunTelemetry::record_write_op(ProcessId p, VarId x, Value v) {
  metrics_.counter(p, metric::kWritesIssued).add();
  if (trace_) {
    trace_->accept({TraceKind::kWrite, p, now(), WriteId{}, x, v,
                    /*delayed=*/false, 0, VectorClock{}});
  }
}

void RunTelemetry::record_object_op(ProcessId p, SpecId /*spec*/) {
  metrics_.counter(p, metric::kObjectOps).add();
}

void RunTelemetry::record_crash(ProcessId p) {
  metrics_.counter(p, metric::kCrashes).add();
  if (trace_) {
    trace_->accept({TraceKind::kCrash, p, now(), WriteId{}, 0, kBottom,
                    /*delayed=*/false, 0, VectorClock{}});
  }
}

void RunTelemetry::record_restart(ProcessId p) {
  metrics_.counter(p, metric::kRestarts).add();
  if (trace_) {
    trace_->accept({TraceKind::kRestart, p, now(), WriteId{}, 0, kBottom,
                    /*delayed=*/false, 0, VectorClock{}});
  }
}

void RunTelemetry::record_checkpoint(ProcessId p, std::uint64_t bytes) {
  metrics_.counter(p, metric::kCheckpoints).add();
  metrics_.summary(p, metric::kCheckpointBytes).add(static_cast<double>(bytes));
  if (trace_) {
    trace_->accept({TraceKind::kCheckpoint, p, now(), WriteId{}, 0, kBottom,
                    /*delayed=*/false, bytes, VectorClock{}});
  }
}

void RunTelemetry::fold_network(const NetworkStats& net,
                                const FaultStats& faults) {
  const ProcessId run = MetricsRegistry::kRunScope;
  metrics_.counter(run, metric::kNetMessages).add(net.messages_sent);
  metrics_.counter(run, metric::kNetBytes).add(net.bytes_sent);
  metrics_.counter(run, metric::kNetDropped).add(faults.dropped);
  metrics_.counter(run, metric::kNetDuplicated).add(faults.duplicated);
  metrics_.counter(run, metric::kNetPartitionDropped)
      .add(faults.partition_dropped);
  metrics_.counter(run, metric::kNetCrashDropped).add(faults.crash_dropped);
}

void RunTelemetry::fold_reliable(ProcessId p, const ReliableStats& arq) {
  metrics_.counter(p, metric::kArqData).add(arq.data_sent);
  metrics_.counter(p, metric::kArqRetransmissions).add(arq.retransmissions);
  metrics_.counter(p, metric::kArqAcks).add(arq.acks_sent);
  metrics_.counter(p, metric::kArqDuplicates).add(arq.duplicates_suppressed);
  metrics_.counter(p, metric::kArqAbandoned).add(arq.abandoned);
}

void RunTelemetry::sample_rto(ProcessId p, std::uint64_t rto_us) {
  metrics_.summary(p, metric::kArqRto).add(static_cast<double>(rto_us));
}

void RunTelemetry::fold_recovery(ProcessId p, const RecoveryStats& rec) {
  metrics_.counter(p, metric::kRecoveryRequests).add(rec.requests_sent);
  metrics_.counter(p, metric::kRecoveryWrites).add(rec.writes_recovered);
  metrics_.counter(p, metric::kRecoveryBytes).add(rec.catch_up_bytes);
}

std::string RunTelemetry::chrome_trace(double ts_scale) const {
  const auto events = trace().events();
  return export_chrome_trace(events, ts_scale);
}

std::string RunTelemetry::trace_csv() const {
  const auto events = trace().events();
  return export_trace_csv(events);
}

}  // namespace dsm
