// optcm — byte-level encoding primitives.
//
// All inter-process messages travel as byte buffers, in the simulator as well
// as over the ring mesh and TCP, so the codec is exercised on every message
// hop; every run-log record (RunRecorder) is encoded with it too.  Integers
// use LEB128 varints (clock components are mostly small); values use zig-zag
// varints.  put_varint is the one varint encoder: ByteWriter checks its room
// once per value and then writes through a raw cursor, either into a growing
// vector or into a caller's bounded buffer.  Decoding is defensive: a
// truncated or malformed buffer yields an error instead of UB, and the
// decoder never reads past `size()`.

#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dsm {

/// Zig-zag transforms (exposed for tests).
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bytes ByteWriter::u64 spends on `v` (LEB128): lets an encoder size its
/// buffer exactly before it writes.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// The most bytes one varint takes: ⌈64/7⌉ for a u64 or i64, ⌈32/7⌉ for a
/// u32.  Worst-case bounds of bounded encodes are sums of these.
inline constexpr std::size_t kMaxVarintBytes = 10;
inline constexpr std::size_t kMaxVarint32Bytes = 5;

/// Write `v` as a LEB128 varint at `p`; returns the byte after it.
/// \pre varint_size(v) bytes are writable at `p`
inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Append-only byte buffer with varint primitives.  Each primitive checks
/// the room left once, then writes through a raw cursor; only a value that
/// does not fit takes the out-of-line path.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopt `buf` as the backing store: contents are discarded, capacity is
  /// kept.  Hot encode paths hand their scratch vector in, encode, and
  /// reclaim it with `std::move(w).take()` — no allocation once the scratch
  /// has grown to the working-set size.
  explicit ByteWriter(std::vector<std::uint8_t> buf) noexcept
      : buf_(std::move(buf)) {
    buf_.clear();
    begin_ = cur_ = end_ = buf_.data();
  }

  /// Bounded mode: encode into `out`, which the caller sized for the worst
  /// case of what it writes (sums of kMaxVarintBytes and friends).  Nothing
  /// grows: writing past `out` is a contract violation.  The bytes written
  /// are the first size() of `out`; buffer() and take() are not available.
  explicit ByteWriter(std::span<std::uint8_t> out) noexcept
      : begin_(out.data()),
        cur_(out.data()),
        end_(out.data() + out.size()),
        bounded_(true) {}

  // The cursors point into this writer's own storage.
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v) {
    room(1);
    *cur_++ = v;
  }
  void u32(std::uint32_t v) { varint<kMaxVarint32Bytes>(v); }  ///< LEB128
  void u64(std::uint64_t v) { varint<kMaxVarintBytes>(v); }    ///< LEB128
  /// Zig-zag varint.
  void i64(std::int64_t v) { varint<kMaxVarintBytes>(zigzag_encode(v)); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void u64_vec(std::span<const std::uint64_t> v) {
    u64(v.size());
    if (left() >= v.size() * kMaxVarintBytes) {
      for (const std::uint64_t x : v) cur_ = put_varint(cur_, x);
    } else {
      for (const std::uint64_t x : v) u64(x);
    }
  }
  void bytes(std::span<const std::uint8_t> raw_bytes) {
    raw(raw_bytes.data(), raw_bytes.size());
  }

  /// The bytes written.  \pre not bounded
  [[nodiscard]] const std::vector<std::uint8_t>& buffer();
  /// \pre not bounded
  [[nodiscard]] std::vector<std::uint8_t> take() &&;
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(cur_ - begin_);
  }

 private:
  [[nodiscard]] std::size_t left() const noexcept {
    return static_cast<std::size_t>(end_ - cur_);
  }
  void room(std::size_t n) {
    if (left() < n) [[unlikely]] grow(n);
  }
  template <std::size_t kMax>
  void varint(std::uint64_t v) {
    if (left() >= kMax) [[likely]] {
      cur_ = put_varint(cur_, v);
    } else {
      varint_slow(v);
    }
  }
  void raw(const void* p, std::size_t n) {
    room(n);
    if (n != 0) std::memcpy(cur_, p, n);
    cur_ += n;
  }
  /// Make room for `n` more bytes: grows the vector (geometrically, as
  /// push_back would); in bounded mode, fails the contract.
  void grow(std::size_t n);
  void varint_slow(std::uint64_t v);

  /// Vector mode: the storage.  Its size() is the writable extent
  /// [begin_, end_); the bytes written are [begin_, cur_).  buffer() trims
  /// it to the bytes written.
  std::vector<std::uint8_t> buf_;
  std::uint8_t* begin_ = nullptr;
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
  bool bounded_ = false;
};

/// Sequential reader over an encoded buffer.  Every accessor returns
/// std::nullopt on malformed/truncated input; `ok()` stays false afterwards.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() noexcept;
  [[nodiscard]] std::optional<std::uint32_t> u32() noexcept;
  [[nodiscard]] std::optional<std::uint64_t> u64() noexcept;
  [[nodiscard]] std::optional<std::int64_t> i64() noexcept;
  [[nodiscard]] std::optional<std::string> str();
  [[nodiscard]] std::optional<std::vector<std::uint64_t>> u64_vec();

  /// The not-yet-consumed tail of the buffer (frame payloads).  Consumes it:
  /// the reader is exhausted afterwards.
  [[nodiscard]] std::span<const std::uint8_t> rest() noexcept;

  /// Consume exactly `n` raw bytes (length-prefixed sub-buffers, e.g.
  /// checkpoint sections).  std::nullopt if fewer than `n` remain.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> take(
      std::size_t n) noexcept;

  /// True iff no decode error occurred so far.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True iff the whole buffer was consumed (call at the end of decode).
  [[nodiscard]] bool exhausted() const noexcept { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  void fail() noexcept { ok_ = false; }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dsm
