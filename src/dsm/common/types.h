// optcm — common identifier and value types shared by every subsystem.
//
// The paper's model (Section 2): a finite set of sequential processes
// Π = {p_1 … p_n} sharing m memory locations x_1 … x_m.  We index both
// processes and variables from 0 internally; human-facing printers add 1 so
// output matches the paper's notation (p_1, x_1, …).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dsm {

/// Index of a process in Π (0-based; the paper writes p_{i+1}).
using ProcessId = std::uint32_t;

/// Index of a shared variable (0-based; the paper writes x_{h+1}).
using VarId = std::uint32_t;

/// The largest run a command line may ask for, and a run archive's header
/// may claim: `optcm --procs` and `--vars` ranges.
inline constexpr std::size_t kMaxProcs = 1024;
inline constexpr std::size_t kMaxVars = std::size_t{1} << 16;

/// Values stored in memory locations.  The paper treats values as opaque; a
/// 64-bit integer is enough to encode any tag/payload our workloads need.
using Value = std::int64_t;

/// Sequence numbers: the k-th write issued by a process, 1-based exactly as
/// in the paper (Observation 2: w.Write_co[i] = k  ⇔  w is p_i's k-th write).
using SeqNo = std::uint64_t;

/// The initial value ⊥ of every memory location (Section 2).
inline constexpr Value kBottom = std::numeric_limits<Value>::min();

/// Identity of a write operation: (issuing process, 1-based write index).
/// This is the globally unique name the paper uses implicitly ("the k-th
/// write issued by p_i") and is the key of the write causality graph.
struct WriteId {
  ProcessId proc = 0;
  SeqNo seq = 0;  ///< 1-based; 0 means "no write" (reads of ⊥).

  [[nodiscard]] constexpr bool valid() const noexcept { return seq != 0; }

  friend constexpr bool operator==(const WriteId&, const WriteId&) noexcept = default;
  friend constexpr auto operator<=>(const WriteId&, const WriteId&) noexcept = default;
};

/// A write id that denotes "reads the initial value ⊥".
inline constexpr WriteId kNoWrite{};

/// Immutable, refcounted wire payload.  A broadcast hands the SAME buffer to
/// every receiver (and to ARQ retransmission queues and in-flight simulator
/// events) instead of copying bytes per destination; sharing is safe because
/// the contents are const and shared_ptr refcounting is atomic, so payloads
/// may cross threads (RingMesh rings) without synchronization beyond the
/// handoff itself.
using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Seal an encoded buffer into a shareable payload.
[[nodiscard]] inline Payload make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// Human-readable name matching the paper's notation, e.g. "w_1^3" for the
/// third write of p_1 (paper index; proc is converted to 1-based).
[[nodiscard]] std::string to_string(const WriteId& w);

}  // namespace dsm

template <>
struct std::hash<dsm::WriteId> {
  std::size_t operator()(const dsm::WriteId& w) const noexcept {
    // splitmix-style mix of the two fields.
    std::uint64_t x = (std::uint64_t{w.proc} << 48) ^ w.seq;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};
