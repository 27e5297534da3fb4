// optcm — global history container (paper Section 2).

#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsm/common/types.h"
#include "dsm/history/operation.h"

namespace dsm {

/// H = ⟨h_1 … h_n⟩ plus the recorded ↦ro relation, flattened for O(1)
/// OpRef-based access.  Append-only: operations are added in each process's
/// program order, exactly as a protocol run (or a scripted example) emits
/// them.
class GlobalHistory {
 public:
  GlobalHistory(std::size_t n_procs, std::size_t n_vars);

  /// Record the next write of process p.  The write's 1-based sequence number
  /// is assigned automatically (writes_by(p).size() + 1).  Returns its id.
  WriteId add_write(ProcessId p, VarId x, Value v);

  /// Record the next read of process p returning value v written by
  /// `reads_from` (use kNoWrite for a read of the initial value ⊥).
  OpRef add_read(ProcessId p, VarId x, Value v, WriteId reads_from);

  /// Record the next typed mutation of process p on x: spec-defined opcode
  /// with primary operand `arg` (stored in value) and secondary `arg2`.
  /// Sequence numbering is shared with add_write — a typed mutation IS a
  /// write for causal purposes.  Returns its id.
  WriteId add_mutation(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                       Value arg, Value arg2);

  /// Record the next typed accessor of process p on x: it returned
  /// `returned` under query operand `arg`; `reads_from` tags the last
  /// mutation applied locally (kNoWrite if none) and `visible` snapshots the
  /// per-sender applied-mutation counts at accessor time (may be empty).
  OpRef add_accessor(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                     Value arg, Value returned, WriteId reads_from,
                     std::vector<std::uint64_t> visible);

  /// Re-record an operation copied from another history or decoded from a
  /// log: the add_* call above that matches its kind and spec.  A write gets
  /// its WriteId from program order, which callers may compare with the
  /// copied one.  Returns the new op.
  OpRef append(const Operation& op);

  [[nodiscard]] std::size_t n_procs() const noexcept { return n_procs_; }
  [[nodiscard]] std::size_t n_vars() const noexcept { return n_vars_; }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }

  [[nodiscard]] const Operation& op(OpRef r) const;
  [[nodiscard]] std::span<const Operation> all_ops() const noexcept { return ops_; }

  /// OpRefs of p's local history, in program order.
  [[nodiscard]] std::span<const OpRef> local(ProcessId p) const;

  /// OpRef of the write with the given identity, if recorded (never for
  /// seq 0, a process ≥ n_procs(), or a seq past write_count()).
  [[nodiscard]] std::optional<OpRef> find_write(WriteId w) const;

  /// All writes in the history, in recording order.
  [[nodiscard]] std::span<const OpRef> writes() const noexcept { return writes_; }

  /// Number of writes issued by process p so far.
  [[nodiscard]] SeqNo write_count(ProcessId p) const;

  /// Multi-line rendering in the paper's example style ("h1: w1(x1)a; …").
  [[nodiscard]] std::string str() const;

 private:
  OpRef push(Operation op);

  std::size_t n_procs_;
  std::size_t n_vars_;
  std::vector<Operation> ops_;                 // flattened, append order
  std::vector<std::vector<OpRef>> by_proc_;    // program order per process
  std::vector<OpRef> writes_;                  // all writes
  std::vector<std::vector<OpRef>> writes_by_;  // per process, by seq − 1
};

}  // namespace dsm
