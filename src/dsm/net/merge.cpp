#include "dsm/net/merge.h"

#include <map>
#include <set>
#include <tuple>

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
        merged_(runs.size(), runs.empty() ? 0 : runs[0].history.n_vars()),
        cursors_(runs.size()) {}

  std::optional<MergedRun> run() {
    if (!validate()) return std::nullopt;
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
      for (const RunEvent& e : r.events) {
        if (e.at != p) return false;  // a node only observes itself
      }
      for (const OpRef ref : r.history.local(p)) {
        // Sanity: the run really is p's local history in program order.
        if (r.history.op(ref).proc != p) return false;
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
    return sent_.contains(w);
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
    RunEvent copy = ev;
    copy.order = merged_.events.size();
    if (copy.kind == EvKind::kSend) sent_.insert(copy.write);
    merged_.events.push_back(std::move(copy));
    ++c.ev;
    return true;
  }

  std::span<const ImportedRun> runs_;
  MergedRun merged_;
  std::vector<Cursor> cursors_;
  std::set<WriteId> sent_;
};

}  // namespace

std::optional<MergedRun> merge_runs(std::span<const ImportedRun> runs) {
  if (runs.empty()) return std::nullopt;
  return Merger(runs).run();
}

std::optional<ImportedRun> stitch_incarnations(
    std::span<const ImportedRun> incarnations) {
  if (incarnations.empty()) return std::nullopt;
  const std::size_t n_procs = incarnations[0].history.n_procs();
  const std::size_t n_vars = incarnations[0].history.n_vars();
  for (const ImportedRun& r : incarnations) {
    if (r.history.n_procs() != n_procs || r.history.n_vars() != n_vars)
      return std::nullopt;
  }

  ImportedRun out{GlobalHistory(n_procs, n_vars), {}};

  // Operations: validate the common prefix per process, keep the longest.
  for (ProcessId p = 0; p < n_procs; ++p) {
    const ImportedRun* longest = &incarnations[0];
    for (const ImportedRun& r : incarnations) {
      if (r.history.local(p).size() > longest->history.local(p).size())
        longest = &r;
    }
    const auto base = longest->history.local(p);
    for (const ImportedRun& r : incarnations) {
      const auto ops = r.history.local(p);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation& a = r.history.op(ops[i]);
        const Operation& b = longest->history.op(base[i]);
        if (a.kind != b.kind || a.var != b.var || a.value != b.value ||
            a.write_id != b.write_id || a.spec != b.spec ||
            a.opcode != b.opcode || a.arg2 != b.arg2) {
          return std::nullopt;
        }
      }
    }
    for (const OpRef ref : base) {
      const Operation& op = longest->history.op(ref);
      // Write ids follow program order; a mismatch means the log's own write
      // ids were not in program order.
      if (out.history.op(out.history.append(op)).write_id != op.write_id) {
        return std::nullopt;
      }
    }
  }

  // Events: first-seen-order union with per-key occurrence counting.
  using EvKey = std::tuple<std::uint8_t, ProcessId, WriteId, WriteId, bool>;
  const auto key_of = [](const RunEvent& e) {
    return EvKey{static_cast<std::uint8_t>(e.kind), e.at, e.write, e.other,
                 e.delayed};
  };
  std::map<EvKey, std::size_t> emitted;  // occurrences already in `out`
  for (const ImportedRun& r : incarnations) {
    std::map<EvKey, std::size_t> local;
    for (const RunEvent& e : r.events) {
      const std::size_t seen = ++local[key_of(e)];
      std::size_t& have = emitted[key_of(e)];
      if (seen <= have) continue;  // this incarnation replayed it from WAL
      have = seen;
      RunEvent copy = e;
      copy.order = out.events.size();
      out.events.push_back(std::move(copy));
    }
  }
  return out;
}

}  // namespace dsm
