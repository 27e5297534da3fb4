#include "dsm/protocols/optp.h"

#include "dsm/common/contracts.h"

namespace dsm {

OptP::OptP(ProcessId self, std::size_t n_procs, std::size_t n_vars,
           Endpoint& endpoint, ProtocolObserver& observer,
           bool writing_semantics, std::size_t write_blob_size,
           bool convergent)
    : BufferingProtocol(self, n_procs, n_vars, endpoint, observer,
                        writing_semantics, convergent),
      write_co_(n_procs),
      last_write_on_(n_vars, VectorClock{n_procs}),
      write_blob_size_(write_blob_size) {}

void OptP::write(VarId x, Value v) {
  DSM_REQUIRE(x < n_vars_);
  ++stats_.writes_issued;

  // Fig. 4 line 1: track ↦po_i.
  const SeqNo seq = write_co_.tick(self_);

  WriteUpdate& m = outgoing_;
  m.sender = self_;
  m.var = x;
  m.value = v;
  m.write_seq = seq;
  m.clock = write_co_;  // copy-assign: reuses the component buffer
  m.run = next_run(x, write_co_);
  m.blob.assign(write_blob_size_, static_cast<std::uint8_t>(v));
  stamp_typed(m);

  observer_->on_send(self_, m);
  // Fig. 4 line 2: send event — one encode, one shared payload for all
  // n−1 receivers.
  endpoint_->broadcast(encode_payload(m));

  // Fig. 4 lines 3–5: local apply event and bookkeeping.  In convergent
  // mode an own write can lose arbitration to an already-applied concurrent
  // write; LastWriteOn then stays with the winner so reads keep merging the
  // vector of the value they actually return.
  if (apply_own_write(x, v, seq, write_co_)) {
    last_write_on_[x] = write_co_;
  }
}

ReadResult OptP::read(VarId x) {
  DSM_REQUIRE(x < n_vars_);
  ++stats_.reads_issued;

  // Fig. 5 read line 1: incorporate the causal relations of the last write
  // applied to x_h.  This is the only place OptP learns foreign causality —
  // precisely the read-from relation ↦ro.
  write_co_.merge(last_write_on_[x]);

  const ReadResult result = peek(x);
  observer_->on_return(self_, x, result.value, result.writer);
  return result;
}

void OptP::post_apply(const WriteUpdate& m, bool installed) {
  // Fig. 5 sync-thread line 5: store w_u(x_h).Write_co — for the write whose
  // value the variable now holds.
  if (installed) last_write_on_[m.var] = m.clock;
}

void OptP::snapshot(ByteWriter& w) const {
  BufferingProtocol::snapshot(w);
  w.u64_vec(write_co_.components());
  w.u64(last_write_on_.size());
  for (const VectorClock& v : last_write_on_) w.u64_vec(v.components());
}

bool OptP::restore(ByteReader& r) {
  if (!BufferingProtocol::restore(r)) return false;
  auto write_co = r.u64_vec();
  if (!write_co || write_co->size() != n_procs_) return false;
  write_co_ = VectorClock{std::move(*write_co)};
  const auto count = r.u64();
  if (!count || *count != last_write_on_.size()) return false;
  for (VectorClock& v : last_write_on_) {
    auto components = r.u64_vec();
    if (!components || components->size() != n_procs_) return false;
    v = VectorClock{std::move(*components)};
  }
  return true;
}

const VectorClock& OptP::last_write_on(VarId x) const {
  DSM_REQUIRE(x < n_vars_);
  return last_write_on_[x];
}

std::string OptP::name() const {
  if (convergent()) return "optp-conv";
  return writing_semantics() ? "optp-ws" : "optp";
}

}  // namespace dsm
