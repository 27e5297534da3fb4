#include "dsm/objects/object_store.h"

#include "dsm/common/contracts.h"

namespace dsm {

ObjectStore::ObjectStore(std::shared_ptr<const ObjectSchema> schema,
                         std::size_t n_procs, std::size_t n_vars,
                         ProtocolObserver& next)
    : schema_(std::move(schema)),
      n_procs_(n_procs),
      n_vars_(n_vars),
      next_(&next) {
  DSM_REQUIRE(schema_ != nullptr && n_procs_ >= 1 && n_vars_ >= 1);
  states_.resize(n_procs_);
  counts_.resize(n_procs_);
  last_result_.assign(n_procs_, kBottom);
  for (std::size_t p = 0; p < n_procs_; ++p) {
    states_[p].reserve(n_vars_);
    counts_[p].assign(n_vars_, std::vector<std::uint64_t>(n_procs_, 0));
    for (std::size_t x = 0; x < n_vars_; ++x)
      states_[p].push_back(
          spec_for(schema_->spec_for(static_cast<VarId>(x))).make_state());
  }
}

void ObjectStore::stash_locked(const WriteUpdate& m) {
  DSM_REQUIRE(valid_spec_id(m.spec) && valid_opcode(m.opcode));
  Stashed s;
  s.var = m.var;
  s.op.spec = static_cast<SpecId>(m.spec);
  s.op.opcode = static_cast<OpCode>(m.opcode);
  s.op.arg = m.value;
  s.op.arg2 = m.arg2;
  stash_[WriteId{m.sender, m.write_seq}] = s;
}

void ObjectStore::on_send(ProcessId at, const WriteUpdate& m) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stash_locked(m);
  }
  next_->on_send(at, m);
}

void ObjectStore::on_receipt(ProcessId at, const WriteUpdate& m) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stash_locked(m);
  }
  next_->on_receipt(at, m);
}

void ObjectStore::on_apply(ProcessId at, WriteId w, bool delayed) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    DSM_REQUIRE(at < n_procs_);
    const auto it = stash_.find(w);
    if (it == stash_.end()) {
      // No send/receipt carried this write's payload past us (a process
      // restored from a checkpoint).  Typed runs reject that mode; count and
      // move on.
      ++unmatched_applies_;
    } else {
      const Stashed& s = it->second;
      DSM_REQUIRE(s.var < n_vars_);
      last_result_[at] =
          states_[at][s.var]->apply(s.op.opcode, s.op.arg, s.op.arg2);
      ++counts_[at][s.var][w.proc];
    }
  }
  next_->on_apply(at, w, delayed);
}

void ObjectStore::on_return(ProcessId at, VarId x, Value v, WriteId from) {
  next_->on_return(at, x, v, from);
}

void ObjectStore::on_skip(ProcessId at, WriteId w, WriteId by) {
  next_->on_skip(at, w, by);
}

Value ObjectStore::observe(ProcessId at, VarId x, OpCode opcode,
                           Value arg) const {
  const std::lock_guard<std::mutex> lock(mu_);
  DSM_REQUIRE(at < n_procs_ && x < n_vars_);
  return states_[at][x]->observe(opcode, arg);
}

std::vector<std::uint64_t> ObjectStore::visible_counts(ProcessId at,
                                                       VarId x) const {
  const std::lock_guard<std::mutex> lock(mu_);
  DSM_REQUIRE(at < n_procs_ && x < n_vars_);
  return counts_[at][x];
}

Value ObjectStore::last_apply_result(ProcessId at) const {
  const std::lock_guard<std::mutex> lock(mu_);
  DSM_REQUIRE(at < n_procs_);
  return last_result_[at];
}

std::uint64_t ObjectStore::replica_digest(ProcessId at) const {
  const std::lock_guard<std::mutex> lock(mu_);
  DSM_REQUIRE(at < n_procs_);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& state : states_[at]) {
    h ^= state->digest();
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t ObjectStore::unmatched_applies() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unmatched_applies_;
}

}  // namespace dsm
