// optcm — on-the-wire protocol messages.
//
// Three message shapes cover every protocol in the library:
//   * WriteUpdate — one write operation w_i(x_h)v plus its piggybacked vector
//     (Write_co for OptP, a Fidge–Mattern clock for ANBKH).  Paper Fig. 4
//     line 2: send[m(x_h, v, Write_co)] to Π − p_i.
//   * TokenGrant — circulating-token handoff for the sender-side
//     writing-semantics protocol (Jiménez et al. [7]).
//   * BatchUpdate — the token holder's last-write-per-variable batch.
//
// Every message encodes to bytes (see codec.h) and decodes defensively; the
// tagged `decode_message` entry point returns std::nullopt on any malformed
// input.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "dsm/common/types.h"
#include "dsm/codec/codec.h"
#include "dsm/vc/vector_clock.h"

namespace dsm {

enum class MsgType : std::uint8_t {
  kWriteUpdate = 1,
  kTokenGrant = 2,
  kBatchUpdate = 3,
  // 4 and 5 are retired (they named a crash-recovery exchange that the ARQ
  // now does); the decoder rejects them like any unknown tag.
};

/// One entry of ShardedOptP's sparse causal-knowledge matrix: "the latest
/// write by `col` relevant to `row` in this write's causal past is `col`'s
/// `seq`-th row-relevant write".  Entries are sorted by (row, col) and only
/// nonzero seqs are shipped, so the encoded size is O(active subscriber
/// pairs), not O(n²).
struct SubDep {
  ProcessId row = 0;  ///< the subscriber whose knowledge this entry mirrors
  ProcessId col = 0;  ///< the writer the knowledge is about
  SeqNo seq = 0;      ///< count of col's row-relevant writes known

  friend bool operator==(const SubDep&, const SubDep&) = default;
};

/// A single write operation in flight.
struct WriteUpdate {
  ProcessId sender = 0;   ///< issuing process p_u
  VarId var = 0;          ///< written location x_h
  Value value = 0;        ///< written value v
  SeqNo write_seq = 0;    ///< k: this is p_u's k-th write (1-based)
  VectorClock clock;      ///< piggybacked vector (semantics protocol-specific)
  /// Writing semantics (variants of [2]/[14]): how many immediately preceding
  /// writes by the same sender — all on the same variable, with identical
  /// foreign clock components — this write supersedes.  A receiver missing
  /// only sender-writes in (write_seq - run - 1, write_seq) may apply this
  /// message anyway, logically applying the superseded writes just before it.
  /// Always 0 for protocols without writing semantics.
  std::uint64_t run = 0;
  /// Application payload attached to the value (models large objects; its
  /// bytes reach only the processes a write is routed to).
  std::vector<std::uint8_t> blob;
  /// Subscription-routed sharding (ShardedOptP): the sparse causal-knowledge
  /// matrix carried instead of the complete-group Apply counters.  Sorted by
  /// (row, col), nonzero seqs only; empty for every other protocol.
  std::vector<SubDep> sub_deps;
  /// Typed-object extension (dsm/objects): the mutation travels as the
  /// opaque triple (spec, opcode, arg) — `value` carries the primary
  /// operand, `arg2` the secondary (CAS desired value).  Raw bytes here, not
  /// enums, so the codec stays link-independent of the objects library.
  /// All three are 0 for a plain register write, the frame's typed flag bit
  /// stays clear, and the encoding degenerates byte-identically to the
  /// pre-typed format.
  std::uint8_t spec = 0;
  std::uint8_t opcode = 0;
  Value arg2 = 0;

  void encode(ByteWriter& w) const;
  [[nodiscard]] static std::optional<WriteUpdate> decode(ByteReader& r);

  friend bool operator==(const WriteUpdate&, const WriteUpdate&) = default;
};

/// Token handoff for the sender-side writing-semantics protocol.
struct TokenGrant {
  std::uint64_t round = 0;  ///< monotone round counter
  ProcessId holder = 0;     ///< process receiving the token

  void encode(ByteWriter& w) const;
  [[nodiscard]] static std::optional<TokenGrant> decode(ByteReader& r);

  friend bool operator==(const TokenGrant&, const TokenGrant&) = default;
};

/// One coalesced entry of a token-round batch.
struct BatchEntry {
  VarId var = 0;
  Value value = 0;
  SeqNo write_seq = 0;      ///< seq of the surviving (last) write on var
  std::uint64_t skipped = 0;///< how many earlier writes on var were coalesced

  friend bool operator==(const BatchEntry&, const BatchEntry&) = default;
};

/// The token holder's updates for one round (last write per variable).
struct BatchUpdate {
  ProcessId sender = 0;
  std::uint64_t round = 0;
  std::vector<BatchEntry> entries;

  void encode(ByteWriter& w) const;
  [[nodiscard]] static std::optional<BatchUpdate> decode(ByteReader& r);

  friend bool operator==(const BatchUpdate&, const BatchUpdate&) = default;
};

using Message = std::variant<WriteUpdate, TokenGrant, BatchUpdate>;

/// Frame a message with its type tag.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& m);

/// Frame a message with its type tag into an existing writer (scratch-buffer
/// reuse on hot paths; see ByteWriter's adopting constructor).
void encode_message(const Message& m, ByteWriter& w);

/// Frame a bare WriteUpdate (tag + body) without constructing the Message
/// variant — the broadcast hot path would otherwise copy the payload blob
/// into a temporary variant just to encode it.
void encode_message(const WriteUpdate& m, ByteWriter& w);

/// Decode a framed message; std::nullopt on malformed/truncated/trailing-garbage
/// input.
[[nodiscard]] std::optional<Message> decode_message(std::span<const std::uint8_t> bytes);

}  // namespace dsm
