// optcm — byte-level encoding primitives.
//
// All inter-process messages travel as byte buffers, in the simulator as well
// as over the ring mesh and TCP, so the codec is exercised on every message
// hop.  Integers use LEB128 varints (clock components are mostly small);
// values use zig-zag varints.  Decoding is defensive: a truncated or
// malformed buffer yields an error instead of UB, and the decoder never reads
// past `size()`.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dsm {

/// Bytes ByteWriter::u64 spends on `v` (LEB128): lets an encoder size its
/// buffer exactly before it writes.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Append-only byte buffer with varint primitives.
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
  }

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);   ///< LEB128 varint
  void u64(std::uint64_t v);   ///< LEB128 varint
  void i64(std::int64_t v);    ///< zig-zag varint
  void str(std::string_view s);
  void u64_vec(std::span<const std::uint64_t> v);
  void bytes(std::span<const std::uint8_t> raw);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
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

/// Zig-zag transforms (exposed for tests).
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace dsm
