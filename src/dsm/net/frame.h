// optcm — length-prefixed framing over byte streams.
//
// TCP is a byte stream; everything above it (the ARQ frames, the control
// protocol) is message-oriented.  This layer restores message boundaries
// with the smallest possible envelope:
//
//   frame := length u32 LE | kind u8 | body bytes      (length = 1 + |body|)
//
// The fixed-width little-endian length (rather than a varint) keeps the
// header self-delimiting at any read boundary: four bytes buffered always
// decide how much more to wait for.  `kind` routes the frame before any body
// decoding happens — Hello (connection handshake), Data (one ARQ frame,
// delivered verbatim to the ReliableNode), Control (cluster driver RPC).
//
// Decoding is adversarial-input-safe by construction: a frame longer than
// kMaxFrameBytes or with a zero length (no kind byte) poisons the assembler
// with a typed FrameError instead of allocating unbounded memory or
// desynchronizing — the connection owner counts the error and closes the
// socket.  Bodies are handed onward as spans; nothing here interprets them.
//
// Reassembly copies nothing: next() returns a FrameView whose body points
// into the assembler's own buffer.  The view lives until the next feed(),
// next() or take_residual() on that assembler — long enough for a
// connection owner to dispatch the frame, and a sink that keeps the bytes
// must copy them.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsm/common/types.h"

namespace dsm {

/// Hard cap on `length` (kind byte + body).  Matches the codec's container
/// bound order of magnitude: nothing the protocol stack produces comes close,
/// and a malicious 4-byte header cannot make us reserve gigabytes.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;

/// Frame kinds.  The assembler does not validate kinds (forward
/// compatibility); connection owners reject kinds they do not speak.
enum class FrameKind : std::uint8_t {
  kHello = 1,    ///< handshake: magic, version, role, sender id, n_procs
  kData = 2,     ///< one ARQ frame (ReliableNode wire bytes), verbatim
  kControl = 3,  ///< cluster-driver RPC (dsm/net/control.h)
};

enum class FrameError : std::uint8_t {
  kNone = 0,
  kOversize,  ///< length > kMaxFrameBytes
  kEmpty,     ///< length == 0 (no kind byte)
};

/// One reassembled frame, viewed in place in its assembler's buffer: valid
/// until the next feed(), next() or take_residual() on that assembler.
struct FrameView {
  std::uint8_t kind = 0;
  std::span<const std::uint8_t> body;
};

/// Incremental reassembler for one byte-stream direction.  Feed whatever the
/// socket produced, then pop complete frames.  After an error the assembler
/// is poisoned: feed() is a no-op and next() returns nothing — the caller
/// must close the stream (resynchronizing an untrusted framing layer is not
/// meaningful).
class FrameAssembler {
 public:
  /// Append raw stream bytes.  Returns false iff the assembler is poisoned
  /// (already-extracted frames stay retrievable via next()).
  bool feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete frame, if any.  The view's body invalidates the
  /// previous view's (see FrameView).
  [[nodiscard]] std::optional<FrameView> next();

  [[nodiscard]] FrameError error() const noexcept { return error_; }
  [[nodiscard]] bool poisoned() const noexcept {
    return error_ != FrameError::kNone;
  }

  /// Unconsumed buffered bytes (handed to a new owner when a connection
  /// changes hands, e.g. a control Hello followed by a pipelined request).
  [[nodiscard]] std::vector<std::uint8_t> take_residual();

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  FrameError error_ = FrameError::kNone;
};

/// The 5-byte header for a frame whose body (after the kind byte) is
/// `body_size` bytes.  Precondition: 1 + body_size <= kMaxFrameBytes.
[[nodiscard]] std::array<std::uint8_t, 5> frame_header(FrameKind kind,
                                                       std::size_t body_size);

/// Header + kind + body in one owned buffer (control replies, hellos —
/// paths where the extra copy is irrelevant; the data hot path queues the
/// header and the shared Payload separately instead).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameKind kind, std::span<const std::uint8_t> body);

}  // namespace dsm
