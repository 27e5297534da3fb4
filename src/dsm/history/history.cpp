#include "dsm/history/history.h"

#include <cinttypes>
#include <cstdio>

#include "dsm/common/contracts.h"
#include "dsm/common/format.h"

namespace dsm {

std::string op_to_string(const Operation& op) {
  // Values 0..25 print as a..z so the paper's examples read naturally.
  std::string val;
  if (op.value == kBottom) {
    val = "⊥";
  } else if (op.value >= 0 && op.value < 26) {
    val.push_back(static_cast<char>('a' + op.value));
  } else {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64, op.value);
    val = buf;
  }
  char buf[64];
  if (op.spec == SpecId::kRegister) {
    std::snprintf(buf, sizeof buf, "%c%u(x%u)%s", op.is_write() ? 'w' : 'r',
                  op.proc + 1, op.var + 1, val.c_str());
  } else {
    // Typed rendering: opcode mnemonic instead of w/r, e.g. "inc1(x2)c".
    std::snprintf(buf, sizeof buf, "%s%u(x%u)%s",
                  std::string(to_string(op.opcode)).c_str(), op.proc + 1,
                  op.var + 1, val.c_str());
  }
  return buf;
}

GlobalHistory::GlobalHistory(std::size_t n_procs, std::size_t n_vars)
    : n_procs_(n_procs),
      n_vars_(n_vars),
      by_proc_(n_procs),
      writes_by_(n_procs) {
  DSM_REQUIRE(n_procs >= 1);
  DSM_REQUIRE(n_vars >= 1);
}

OpRef GlobalHistory::push(Operation op) {
  const auto ref = static_cast<OpRef>(ops_.size());
  op.po_index = by_proc_[op.proc].size();
  ops_.push_back(op);
  by_proc_[op.proc].push_back(ref);
  return ref;
}

WriteId GlobalHistory::add_write(ProcessId p, VarId x, Value v) {
  DSM_REQUIRE(p < n_procs_);
  DSM_REQUIRE(x < n_vars_);
  Operation op;
  op.proc = p;
  op.kind = OpKind::kWrite;
  op.var = x;
  op.value = v;
  op.write_id = WriteId{p, writes_by_[p].size() + 1};
  const OpRef ref = push(op);
  writes_.push_back(ref);
  writes_by_[p].push_back(ref);
  return op.write_id;
}

OpRef GlobalHistory::add_read(ProcessId p, VarId x, Value v, WriteId reads_from) {
  DSM_REQUIRE(p < n_procs_);
  DSM_REQUIRE(x < n_vars_);
  Operation op;
  op.proc = p;
  op.kind = OpKind::kRead;
  op.var = x;
  op.value = v;
  op.write_id = reads_from;
  return push(op);
}

WriteId GlobalHistory::add_mutation(ProcessId p, VarId x, SpecId spec,
                                    OpCode opcode, Value arg, Value arg2) {
  DSM_REQUIRE(p < n_procs_);
  DSM_REQUIRE(x < n_vars_);
  DSM_REQUIRE(is_mutation(opcode));
  Operation op;
  op.proc = p;
  op.kind = OpKind::kWrite;
  op.var = x;
  op.value = arg;
  op.write_id = WriteId{p, writes_by_[p].size() + 1};
  op.spec = spec;
  op.opcode = opcode;
  op.arg2 = arg2;
  const OpRef ref = push(std::move(op));
  writes_.push_back(ref);
  writes_by_[p].push_back(ref);
  return ops_[ref].write_id;
}

OpRef GlobalHistory::add_accessor(ProcessId p, VarId x, SpecId spec,
                                  OpCode opcode, Value arg, Value returned,
                                  WriteId reads_from,
                                  std::vector<std::uint64_t> visible) {
  DSM_REQUIRE(p < n_procs_);
  DSM_REQUIRE(x < n_vars_);
  DSM_REQUIRE(is_accessor(opcode));
  Operation op;
  op.proc = p;
  op.kind = OpKind::kRead;
  op.var = x;
  op.value = returned;
  op.write_id = reads_from;
  op.spec = spec;
  op.opcode = opcode;
  op.arg2 = arg;
  op.visible = std::move(visible);
  return push(std::move(op));
}

OpRef GlobalHistory::append(const Operation& op) {
  if (op.is_write()) {
    (void)(op.spec == SpecId::kRegister
               ? add_write(op.proc, op.var, op.value)
               : add_mutation(op.proc, op.var, op.spec, op.opcode, op.value,
                              op.arg2));
    return writes_.back();
  }
  return op.spec == SpecId::kRegister
             ? add_read(op.proc, op.var, op.value, op.write_id)
             : add_accessor(op.proc, op.var, op.spec, op.opcode, op.arg2,
                            op.value, op.write_id, op.visible);
}

const Operation& GlobalHistory::op(OpRef r) const {
  DSM_REQUIRE(r < ops_.size());
  return ops_[r];
}

std::span<const OpRef> GlobalHistory::local(ProcessId p) const {
  DSM_REQUIRE(p < n_procs_);
  return by_proc_[p];
}

std::optional<OpRef> GlobalHistory::find_write(WriteId w) const {
  if (w.proc >= n_procs_ || w.seq == 0 || w.seq > writes_by_[w.proc].size()) {
    return std::nullopt;
  }
  return writes_by_[w.proc][w.seq - 1];
}

SeqNo GlobalHistory::write_count(ProcessId p) const {
  DSM_REQUIRE(p < n_procs_);
  return writes_by_[p].size();
}

std::string GlobalHistory::str() const {
  std::string out;
  for (ProcessId p = 0; p < n_procs_; ++p) {
    out += "h" + std::to_string(p + 1) + ": ";
    std::vector<std::string> parts;
    parts.reserve(by_proc_[p].size());
    for (const OpRef r : by_proc_[p]) parts.push_back(op_to_string(ops_[r]));
    out += join(parts, "; ");
    out += "\n";
  }
  return out;
}

}  // namespace dsm
