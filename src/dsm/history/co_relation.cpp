#include "dsm/history/co_relation.h"

#include <algorithm>

#include "dsm/common/contracts.h"

namespace dsm {

std::optional<CoRelation> CoRelation::build(const GlobalHistory& h) {
  const std::size_t n = h.n_procs();
  CoRelation co{h};
  co.idx_.resize(h.size());
  co.past_.assign(h.size() * n, 0);

  // Read-from: the write each read returned.  A read whose writer is not in
  // the history is a recording error; treat as unbuildable (the checker
  // reports the precise violation separately).
  std::vector<OpRef> from(h.size(), kInvalidOp);
  for (OpRef r = 0; r < h.size(); ++r) {
    const Operation& op = h.op(r);
    co.idx_[r] = static_cast<std::uint32_t>(op.po_index);
    if (op.is_read() && op.write_id.valid()) {
      const auto w = h.find_write(op.write_id);
      if (!w) return std::nullopt;
      from[r] = *w;
    }
  }

  // Kahn topological order over the n program-order chains: each op has at
  // most two immediate predecessors, the previous op of its chain and its
  // read-from write.  done[p] counts p's finished ops, so an op is ready once
  // its read-from write w has done[proc(w)] > idx(w).  Its past is the
  // elementwise max of its predecessors' pasts, each extended by the
  // predecessor itself.  A chain that never finishes means a cycle.
  std::vector<std::uint32_t> done(n, 0);
  std::size_t finished = 0;
  for (bool progress = true; progress;) {
    progress = false;
    for (ProcessId p = 0; p < n; ++p) {
      const auto ops = h.local(p);
      while (done[p] < ops.size()) {
        const OpRef v = ops[done[p]];
        const OpRef w = from[v];
        if (w != kInvalidOp && co.idx_[w] >= done[h.op(w).proc]) break;
        std::uint32_t* row = co.past_.data() + std::size_t{v} * n;
        if (done[p] > 0) std::copy_n(co.past(ops[done[p] - 1]), n, row);
        row[p] = done[p];
        if (w != kInvalidOp) {
          const std::uint32_t* wrow = co.past(w);
          for (std::size_t q = 0; q < n; ++q) {
            row[q] = std::max(row[q], wrow[q]);
          }
          const ProcessId wp = h.op(w).proc;
          row[wp] = std::max(row[wp], co.idx_[w] + 1);
        }
        ++done[p];
        ++finished;
        progress = true;
      }
    }
  }
  if (finished != h.size()) return std::nullopt;  // cyclic
  return co;
}

bool CoRelation::precedes(OpRef a, OpRef b) const noexcept {
  return a != b && past(b)[h_->all_ops()[a].proc] > idx_[a];
}

bool CoRelation::concurrent(OpRef a, OpRef b) const noexcept {
  return a != b && !precedes(a, b) && !precedes(b, a);
}

std::vector<OpRef> CoRelation::causal_past(OpRef o) const {
  DSM_REQUIRE(o < h_->size());
  std::vector<OpRef> out;
  out.reserve(causal_past_size(o));
  for (ProcessId p = 0; p < h_->n_procs(); ++p) {
    const auto prefix = h_->local(p).first(past(o)[p]);
    out.insert(out.end(), prefix.begin(), prefix.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<OpRef> CoRelation::write_causal_past(OpRef o) const {
  auto writes = causal_past(o);
  std::erase_if(writes, [this](OpRef v) { return !h_->op(v).is_write(); });
  return writes;
}

bool CoRelation::write_precedes(WriteId w, WriteId w2) const {
  const auto a = h_->find_write(w);
  const auto b = h_->find_write(w2);
  DSM_REQUIRE(a.has_value() && b.has_value());
  return precedes(*a, *b);
}

bool CoRelation::write_concurrent(WriteId w, WriteId w2) const {
  const auto a = h_->find_write(w);
  const auto b = h_->find_write(w2);
  DSM_REQUIRE(a.has_value() && b.has_value());
  return concurrent(*a, *b);
}

std::size_t CoRelation::causal_past_size(OpRef o) const noexcept {
  const std::uint32_t* row = past(o);
  std::size_t count = 0;
  for (std::size_t p = 0; p < h_->n_procs(); ++p) count += row[p];
  return count;
}

}  // namespace dsm
