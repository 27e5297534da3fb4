// optcm — OptP: the paper's write-delay-optimal protocol (Section 4).
//
// Data structures, exactly as Section 4.1 (subscripts for the owning process
// omitted, as in the paper):
//
//   Apply[1..n]       — Apply[j] = number of writes issued by p_j and applied
//                       here (held in BufferingProtocol::applied_).
//   Write_co[1..n]    — the vector associated with each outgoing write;
//                       Write_co[j] = k means p_j's k-th write ↦co-precedes
//                       this write.  Proven to *characterize* ↦co
//                       (Theorems 1–2).
//   LastWriteOn[1..m] — LastWriteOn[h] = Write_co of the last write applied
//                       to x_h here.
//
// WRITE(x_h, v)  (Fig. 4):  Write_co[i]++;  send (x_h, v, Write_co) to Π−p_i;
//   apply locally;  Apply[i]++;  LastWriteOn[h] := Write_co.
//
// READ(x_h)  (Fig. 5):  Write_co := max(Write_co, LastWriteOn[h]);  return
//   the local copy.  This merge-on-READ is the whole trick: Write_co picks up
//   a foreign write's causal past only when the write's value is actually
//   read (↦ro), never merely because its message was applied — so Write_co
//   tracks ↦co instead of Lamport's →, and no false causality arises.
//
// On receipt of m = (x_h, v, W) from p_u (Fig. 5, synchronization thread):
//   wait until  ∀t≠u : W[t] ≤ Apply[t]  ∧  Apply[u] = W[u] − 1;
//   then  apply;  Apply[u]++;  LastWriteOn[h] := W.
//
// The optional writing-semantics extension (paper footnote 8) is inherited
// from BufferingProtocol; construct with writing_semantics = true for the
// "OptP-WS" variant.

#pragma once

#include "dsm/protocols/buffering.h"

namespace dsm {

class OptP final : public BufferingProtocol {
 public:
  OptP(ProcessId self, std::size_t n_procs, std::size_t n_vars,
       Endpoint& endpoint, ProtocolObserver& observer,
       bool writing_semantics = false, std::size_t write_blob_size = 0,
       bool convergent = false);

  void write(VarId x, Value v) override;
  ReadResult read(VarId x) override;

  [[nodiscard]] std::string name() const override;

  /// The current local Write_co vector (exposed for the Figure 6 renderer
  /// and the characterization tests).
  [[nodiscard]] const VectorClock& write_co() const noexcept { return write_co_; }

  /// LastWriteOn[h] (exposed for tests).
  [[nodiscard]] const VectorClock& last_write_on(VarId x) const;

  void snapshot(ByteWriter& w) const override;
  [[nodiscard]] bool restore(ByteReader& r) override;

 private:
  void post_apply(const WriteUpdate& m, bool installed) override;

  VectorClock write_co_;
  std::vector<VectorClock> last_write_on_;
  std::size_t write_blob_size_;
  WriteUpdate outgoing_;  ///< write() scratch (buffer reuse)
};

}  // namespace dsm
