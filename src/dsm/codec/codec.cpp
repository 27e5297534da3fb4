#include "dsm/codec/codec.h"

#include <algorithm>

#include "dsm/common/contracts.h"

namespace dsm {

namespace {
// Cap on decoded container lengths; a malformed length field must not drive
// a multi-gigabyte allocation.
constexpr std::uint64_t kMaxContainer = 1ULL << 24;
}  // namespace

const std::vector<std::uint8_t>& ByteWriter::buffer() {
  DSM_REQUIRE(!bounded_);
  buf_.resize(size());  // shrinking never moves the storage
  end_ = cur_;
  return buf_;
}

std::vector<std::uint8_t> ByteWriter::take() && {
  DSM_REQUIRE(!bounded_);
  buf_.resize(size());
  begin_ = cur_ = end_ = nullptr;
  return std::move(buf_);
}

void ByteWriter::grow(std::size_t n) {
  DSM_REQUIRE(!bounded_ && "bounded ByteWriter: the encode exceeds its bound");
  // Grown vectors start at kMinBytes and double, so a small message costs
  // one allocation.  Of the capacity, expose (zero-fill) up to twice what is
  // written, not all of it at once: a large reserved buffer is not touched
  // beyond what it will hold.
  constexpr std::size_t kMinBytes = 64;
  const std::size_t len = size();
  if (buf_.capacity() - len < n) {
    buf_.reserve(std::max({len + n, 2 * buf_.capacity(), kMinBytes}));
  }
  buf_.resize(std::min(buf_.capacity(), len + std::max({n, len, kMinBytes})));
  begin_ = buf_.data();
  cur_ = begin_ + len;
  end_ = begin_ + buf_.size();
}

void ByteWriter::varint_slow(std::uint64_t v) {
  room(varint_size(v));
  cur_ = put_varint(cur_, v);
}

std::span<const std::uint8_t> ByteReader::rest() noexcept {
  if (!ok_) return {};
  const auto tail = data_.subspan(pos_);
  pos_ = data_.size();
  return tail;
}

std::optional<std::span<const std::uint8_t>> ByteReader::take(
    std::size_t n) noexcept {
  if (!ok_ || n > remaining()) {
    fail();
    return std::nullopt;
  }
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::optional<std::uint8_t> ByteReader::u8() noexcept {
  if (!ok_ || pos_ >= data_.size()) {
    fail();
    return std::nullopt;
  }
  return data_[pos_++];
}

std::optional<std::uint64_t> ByteReader::u64() noexcept {
  if (!ok_) return std::nullopt;
  std::uint64_t result = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) {
      fail();
      return std::nullopt;
    }
    const std::uint8_t byte = data_[pos_++];
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical over-long encodings in the final group.
      if (shift == 63 && (byte & 0x7E) != 0) {
        fail();
        return std::nullopt;
      }
      return result;
    }
  }
  fail();  // > 10 continuation bytes
  return std::nullopt;
}

std::optional<std::uint32_t> ByteReader::u32() noexcept {
  const auto v = u64();
  if (!v || *v > 0xFFFFFFFFULL) {
    fail();
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*v);
}

std::optional<std::int64_t> ByteReader::i64() noexcept {
  const auto v = u64();
  if (!v) return std::nullopt;
  return zigzag_decode(*v);
}

std::optional<std::string> ByteReader::str() {
  const auto len = u64();
  if (!len || *len > kMaxContainer || *len > remaining()) {
    fail();
    return std::nullopt;
  }
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(*len));
  pos_ += static_cast<std::size_t>(*len);
  return out;
}

std::optional<std::vector<std::uint64_t>> ByteReader::u64_vec() {
  const auto len = u64();
  // Every element occupies at least one byte, so a length exceeding the
  // remaining input is malformed on its face — reject it BEFORE reserving,
  // or a 5-byte adversarial buffer could drive a 128 MB allocation.
  if (!len || *len > kMaxContainer || *len > remaining()) {
    fail();
    return std::nullopt;
  }
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(*len));
  for (std::uint64_t i = 0; i < *len; ++i) {
    const auto v = u64();
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

}  // namespace dsm
