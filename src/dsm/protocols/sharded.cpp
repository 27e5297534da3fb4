#include "dsm/protocols/sharded.h"

#include <algorithm>

#include "dsm/common/contracts.h"

namespace dsm {

ShardedOptP::ShardedOptP(ProcessId self, std::size_t n_procs,
                         std::size_t n_vars, Endpoint& endpoint,
                         ProtocolObserver& observer,
                         std::shared_ptr<const SubscriptionMap> subscription,
                         std::size_t write_blob_size)
    : CausalProtocol(self, n_procs, n_vars, endpoint, observer),
      subscription_(std::move(subscription)),
      knowledge_(n_procs, VectorClock{n_procs}),
      applied_rel_(n_procs),
      last_write_on_(n_vars),
      write_blob_size_(write_blob_size) {
  DSM_REQUIRE(subscription_ != nullptr);
  DSM_REQUIRE(subscription_->n_procs() == n_procs);
  DSM_REQUIRE(subscription_->n_vars() == n_vars);
}

SeqNo ShardedOptP::dep_at(const WriteUpdate& m, ProcessId row, ProcessId col) {
  // Entries are sorted by (row, col); binary search keeps the wait condition
  // O(log |deps|) per lookup.
  const auto it = std::lower_bound(
      m.sub_deps.begin(), m.sub_deps.end(), std::pair{row, col},
      [](const SubDep& d, const std::pair<ProcessId, ProcessId>& key) {
        return d.row != key.first ? d.row < key.first : d.col < key.second;
      });
  if (it == m.sub_deps.end() || it->row != row || it->col != col) return 0;
  return it->seq;
}

void ShardedOptP::write(VarId x, Value v) {
  DSM_REQUIRE(x < n_vars_);
  DSM_REQUIRE(subscription_->is_subscriber(x, self_) &&
              "ShardedOptP::write: self must subscribe to x");
  ++stats_.writes_issued;

  // Tick the send counter toward every subscriber: this write is the next
  // q-relevant write by self for each q ∈ subs(x).  self ∈ subs(x) by the
  // contract above, so K[self][self] is a per-write unique sequence number.
  for (const ProcessId q : subscription_->subscribers(x)) {
    knowledge_[q].tick(self_);
  }
  const SeqNo seq = knowledge_[self_][self_];

  WriteUpdate& m = outgoing_;
  m.sender = self_;
  m.var = x;
  m.value = v;
  m.write_seq = seq;
  m.clock = knowledge_[self_];  // summary row (diagnostics; not waited on)
  m.run = 0;
  m.blob.assign(write_blob_size_, static_cast<std::uint8_t>(v));
  m.sub_deps.clear();
  for (ProcessId q = 0; q < n_procs_; ++q) {
    const auto row = knowledge_[q].components();
    for (ProcessId t = 0; t < n_procs_; ++t) {
      if (row[t] != 0) m.sub_deps.push_back(SubDep{q, t, row[t]});
    }
  }
  stamp_typed(m);

  observer_->on_send(self_, m);

  // Fig. 4 line 2, subscription-routed: one shared payload, one unicast per
  // foreign subscriber — never the full group.
  const Payload payload = encode_payload(m);
  for (const ProcessId q : subscription_->subscribers(x)) {
    if (q == self_) continue;
    endpoint_->send(q, payload);
    ++unicasts_sent_;
    dep_entries_shipped_ += m.sub_deps.size();
  }

  // Local apply (wait-free, liveness L1).
  store(x, v, WriteId{self_, seq});
  applied_rel_[self_] = knowledge_[self_][self_];
  last_write_on_[x] = m.sub_deps;
  observer_->on_apply(self_, WriteId{self_, seq}, /*delayed=*/false);
}

ReadResult ShardedOptP::read(VarId x) {
  DSM_REQUIRE(x < n_vars_);
  DSM_REQUIRE(subscription_->is_subscriber(x, self_) &&
              "ShardedOptP::read: self must subscribe to x");
  ++stats_.reads_issued;

  // The merge-on-READ discipline (Fig. 5 read line 1), lifted to matrices:
  // only now does the last write's causal past enter self's — reading is the
  // only way foreign causality becomes self's obligation.
  for (const SubDep& d : last_write_on_[x]) {
    VectorClock& row = knowledge_[d.row];
    if (row[d.col] < d.seq) row[d.col] = d.seq;
  }

  const ReadResult result = peek(x);
  observer_->on_return(self_, x, result.value, result.writer);
  return result;
}

bool ShardedOptP::can_apply(const WriteUpdate& m) const {
  const ProcessId u = m.sender;
  for (ProcessId t = 0; t < n_procs_; ++t) {
    const SeqNo need = dep_at(m, self_, t);
    if (t == u) {
      if (applied_rel_[t] != need - 1) return false;
    } else if (need > applied_rel_[t]) {
      return false;
    }
  }
  return true;
}

std::uint64_t ShardedOptP::enabling_deficit(const WriteUpdate& m) const {
  std::uint64_t missing = 0;
  for (ProcessId t = 0; t < n_procs_; ++t) {
    const SeqNo need = t == m.sender ? dep_at(m, self_, t) - 1
                                     : dep_at(m, self_, t);
    if (need > applied_rel_[t]) missing += need - applied_rel_[t];
  }
  return missing;
}

void ShardedOptP::apply_update(const WriteUpdate& m, bool delayed) {
  store(m.var, m.value, WriteId{m.sender, m.write_seq});
  applied_rel_[m.sender] = dep_at(m, self_, m.sender);
  last_write_on_[m.var] = m.sub_deps;
  ++stats_.remote_applies;
  observer_->on_apply(self_, WriteId{m.sender, m.write_seq}, delayed);
}

void ShardedOptP::drain_pending() {
  // Linear drain to fixpoint: each apply can enable earlier arrivals.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      ++stats_.drain_scans;
      if (!can_apply(pending_[i])) continue;
      WriteUpdate m = std::move(pending_[i]);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      apply_update(m, /*delayed=*/true);
      if (instr_ != nullptr) instr_->on_buffer_drained(pending_.size());
      progressed = true;
      break;
    }
  }
}

void ShardedOptP::on_message(ProcessId from, std::span<const std::uint8_t> bytes) {
  auto decoded = decode_message(bytes);
  DSM_REQUIRE(decoded.has_value() && "ShardedOptP: malformed frame");
  auto* update = std::get_if<WriteUpdate>(&*decoded);
  DSM_REQUIRE(update != nullptr && "ShardedOptP: unexpected message type");
  WriteUpdate m = std::move(*update);
  DSM_REQUIRE(m.sender == from);
  DSM_REQUIRE(m.var < n_vars_);

  ++stats_.messages_received;
  observer_->on_receipt(self_, m);

  // Routing contract: the sender unicasts to subs(var) only, so an update
  // arriving anywhere else is a dispatch bug, not a protocol state.
  DSM_REQUIRE(subscription_->is_subscriber(m.var, self_) &&
              "ShardedOptP: update routed to a non-subscriber");

  // Reliable exactly-once transport makes a replay impossible in-protocol,
  // but a duplicate is cheap to detect: its per-self seq is already applied.
  if (dep_at(m, self_, m.sender) <= applied_rel_[m.sender]) {
    ++stats_.stale_discards;
    return;
  }

  if (can_apply(m)) {
    apply_update(m, /*delayed=*/false);
    drain_pending();
    return;
  }

  // Write delay (Definition 3): buffer until the enabling applies occur.
  ++stats_.delayed_writes;
  if (instr_ != nullptr) {
    instr_->on_update_buffered(pending_.size() + 1, enabling_deficit(m));
  }
  pending_.push_back(std::move(m));
  stats_.peak_pending = std::max<std::uint64_t>(stats_.peak_pending,
                                                pending_.size());
}

const VectorClock& ShardedOptP::knowledge_row(ProcessId q) const {
  DSM_REQUIRE(q < n_procs_);
  return knowledge_[q];
}

void ShardedOptP::snapshot(ByteWriter& w) const {
  CausalProtocol::snapshot(w);
  for (const VectorClock& row : knowledge_) w.u64_vec(row.components());
  w.u64_vec(applied_rel_.components());
  w.u64(last_write_on_.size());
  for (const auto& deps : last_write_on_) {
    w.u64(deps.size());
    for (const SubDep& d : deps) {
      w.u32(d.row);
      w.u32(d.col);
      w.u64(d.seq);
    }
  }
  w.u64(pending_.size());
  for (const WriteUpdate& m : pending_) m.encode(w);
}

bool ShardedOptP::restore(ByteReader& r) {
  if (!CausalProtocol::restore(r)) return false;
  for (VectorClock& row : knowledge_) {
    auto components = r.u64_vec();
    if (!components || components->size() != n_procs_) return false;
    row = VectorClock{std::move(*components)};
  }
  auto applied = r.u64_vec();
  if (!applied || applied->size() != n_procs_) return false;
  applied_rel_ = VectorClock{std::move(*applied)};
  const auto vars = r.u64();
  if (!vars || *vars != last_write_on_.size()) return false;
  for (auto& deps : last_write_on_) {
    const auto count = r.u64();
    if (!count || *count > (1ULL << 24) || *count > r.remaining()) return false;
    deps.clear();
    deps.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto row = r.u32();
      const auto col = r.u32();
      const auto seq = r.u64();
      if (!row || !col || !seq) return false;
      deps.push_back(SubDep{*row, *col, *seq});
    }
  }
  const auto pending = r.u64();
  if (!pending || *pending > (1ULL << 24) || *pending > r.remaining()) {
    return false;
  }
  pending_.clear();
  for (std::uint64_t i = 0; i < *pending; ++i) {
    auto m = WriteUpdate::decode(r);
    if (!m) return false;
    pending_.push_back(std::move(*m));
  }
  return true;
}

}  // namespace dsm
