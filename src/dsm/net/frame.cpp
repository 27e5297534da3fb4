#include "dsm/net/frame.h"

#include <bit>
#include <cstring>

#include "dsm/common/contracts.h"

namespace dsm {

bool FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned()) return false;
  // Reclaim the consumed prefix before growing: steady-state connections
  // keep the buffer at one frame's working size instead of growing forever.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (std::size_t{1} << 16)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  return true;
}

std::optional<FrameView> FrameAssembler::next() {
  if (poisoned()) return std::nullopt;
  if (buf_.size() - pos_ < 4) return std::nullopt;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_, 4);
  // The wire is little-endian by definition; byte-swap on a BE host.  All
  // supported targets are LE, so this compiles to the plain load above.
  if constexpr (std::endian::native == std::endian::big) {
    len = __builtin_bswap32(len);
  }
  if (len == 0) {
    error_ = FrameError::kEmpty;
    return std::nullopt;
  }
  if (len > kMaxFrameBytes) {
    error_ = FrameError::kOversize;
    return std::nullopt;
  }
  if (buf_.size() - pos_ < 4 + std::size_t{len}) return std::nullopt;
  const std::uint8_t* frame = buf_.data() + pos_;
  pos_ += 4 + len;
  return FrameView{frame[4], {frame + 5, std::size_t{len} - 1}};
}

std::vector<std::uint8_t> FrameAssembler::take_residual() {
  std::vector<std::uint8_t> out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.end());
  buf_.clear();
  pos_ = 0;
  return out;
}

std::array<std::uint8_t, 5> frame_header(FrameKind kind,
                                         std::size_t body_size) {
  DSM_REQUIRE(body_size + 1 <= kMaxFrameBytes);
  const auto len = static_cast<std::uint32_t>(body_size + 1);
  return {static_cast<std::uint8_t>(len & 0xFF),
          static_cast<std::uint8_t>((len >> 8) & 0xFF),
          static_cast<std::uint8_t>((len >> 16) & 0xFF),
          static_cast<std::uint8_t>((len >> 24) & 0xFF),
          static_cast<std::uint8_t>(kind)};
}

std::vector<std::uint8_t> encode_frame(FrameKind kind,
                                       std::span<const std::uint8_t> body) {
  const auto head = frame_header(kind, body.size());
  std::vector<std::uint8_t> out(head.size() + body.size());
  std::memcpy(out.data(), head.data(), head.size());
  if (!body.empty()) std::memcpy(out.data() + head.size(), body.data(), body.size());
  return out;
}

}  // namespace dsm
