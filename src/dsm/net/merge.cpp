#include "dsm/net/merge.h"

namespace dsm {

namespace {

/// Per-process cursors into one node's trace.
struct Cursor {
  std::size_t op = 0;  ///< index into runs[p].history.local(p)
  std::size_t ev = 0;  ///< index into runs[p].events
};

class Merger {
 public:
  explicit Merger(std::span<const ImportedRun> runs)
      : runs_(runs),
        merged_{GlobalHistory(runs.size(), runs[0].history.n_vars()), {}},
        cursors_(runs.size()),
        sent_(runs.size()) {}

  std::optional<MergedRun> run() {
    if (!validate()) return std::nullopt;
    std::size_t ops = 0;
    std::size_t events = 0;
    for (ProcessId p = 0; p < runs_.size(); ++p) {
      ops += runs_[p].history.size();
      events += runs_[p].events.size();
      sent_[p].resize(runs_[p].history.write_count(p));
    }
    merged_.history.reserve(ops);
    merged_.events.reserve(events);
    bool progress = true;
    while (progress) {
      progress = false;
      for (ProcessId p = 0; p < runs_.size(); ++p) {
        while (try_emit_op(p) || try_emit_event(p)) progress = true;
      }
    }
    for (ProcessId p = 0; p < runs_.size(); ++p) {
      const Cursor& c = cursors_[p];
      if (c.op < runs_[p].history.local(p).size() ||
          c.ev < runs_[p].events.size()) {
        return std::nullopt;  // stuck: a dependency no trace satisfies
      }
    }
    return std::move(merged_);
  }

 private:
  bool validate() const {
    for (ProcessId p = 0; p < runs_.size(); ++p) {
      const ImportedRun& r = runs_[p];
      if (r.history.n_procs() != runs_.size() ||
          r.history.n_vars() != merged_.history.n_vars()) {
        return false;
      }
      // A node only records its own ops: one of another process would
      // never be emitted.
      if (r.history.size() != r.history.local(p).size()) return false;
      for (const RunEvent& e : r.events) {
        if (e.at != p) return false;  // a node only observes itself
        if (e.kind == EvKind::kSend && e.write.proc != p) return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool write_known(const WriteId& w) const {
    return merged_.history.find_write(w).has_value();
  }

  /// A receipt/apply/skip of w at p is enabled once w's update could have
  /// reached p: either p wrote it itself (only the op must exist) or the
  /// writer's send has been merged.
  [[nodiscard]] bool update_visible(ProcessId at, const WriteId& w) const {
    if (w.proc == at) return write_known(w);
    return w.proc < sent_.size() && w.seq >= 1 &&
           w.seq <= sent_[w.proc].size() && sent_[w.proc][w.seq - 1];
  }

  bool try_emit_op(ProcessId p) {
    const auto local = runs_[p].history.local(p);
    Cursor& c = cursors_[p];
    if (c.op >= local.size()) return false;
    const Operation& op = runs_[p].history.op(local[c.op]);
    if (op.is_read() && op.write_id.valid() && !write_known(op.write_id)) {
      return false;
    }
    (void)merged_.history.append(op);
    ++c.op;
    return true;
  }

  bool try_emit_event(ProcessId p) {
    Cursor& c = cursors_[p];
    if (c.ev >= runs_[p].events.size()) return false;
    const RunEvent& ev = runs_[p].events[c.ev];
    switch (ev.kind) {
      case EvKind::kSend:
        if (!write_known(ev.write)) return false;
        break;
      case EvKind::kReceipt:
      case EvKind::kApply:
        if (!update_visible(p, ev.write)) return false;
        break;
      case EvKind::kSkip:
        if (!update_visible(p, ev.write)) return false;
        if (ev.other.valid() && !update_visible(p, ev.other)) return false;
        break;
      case EvKind::kReturn:
        if (ev.write.valid() && !update_visible(p, ev.write)) return false;
        break;
    }
    // A send passed write_known, so its seq is within the writer's count.
    if (ev.kind == EvKind::kSend) sent_[p][ev.write.seq - 1] = true;
    merged_.events.push_back(ev);
    merged_.events.back().order = merged_.events.size() - 1;
    ++c.ev;
    return true;
  }

  std::span<const ImportedRun> runs_;
  MergedRun merged_;
  std::vector<Cursor> cursors_;
  /// sent_[q][s - 1]: write (q, s)'s send has been merged.  Sized from q's
  /// own write count; a seq past it reads as not sent.
  std::vector<std::vector<bool>> sent_;
};

}  // namespace

std::optional<MergedRun> merge_runs(std::span<const ImportedRun> runs) {
  if (runs.empty()) return std::nullopt;
  return Merger(runs).run();
}

}  // namespace dsm
