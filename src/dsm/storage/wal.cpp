#include "dsm/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // u32 length + u32 crc32

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Loop a full write through the hooks; short writes on regular files happen
/// on signals/quota (and are scripted by the short-write failpoint).  Leaves
/// errno describing the failure on false.
bool write_all(IoHooks& io, int fd, const std::uint8_t* data,
               std::size_t len) noexcept {
  while (len > 0) {
    const ssize_t n = io.write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_file(int fd, std::vector<std::uint8_t>& out) noexcept {
  out.clear();
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out.insert(out.end(), buf.data(), buf.data() + n);
  }
}

}  // namespace

std::optional<FsyncPolicy> parse_fsync_policy(std::string_view s) noexcept {
  if (s == "none") return FsyncPolicy::kNone;
  if (s == "interval") return FsyncPolicy::kInterval;
  if (s == "every") return FsyncPolicy::kEvery;
  return std::nullopt;
}

const char* to_string(FsyncPolicy p) noexcept {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kEvery: return "every";
  }
  return "?";
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::optional<Wal> Wal::open(const std::string& path, WalOptions options,
                             const ReplayFn& replay, WalOpenStats* open_stats) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return std::nullopt;

  std::vector<std::uint8_t> contents;
  if (!read_file(fd, contents)) {
    ::close(fd);
    return std::nullopt;
  }

  WalOpenStats stats;
  std::size_t offset = 0;
  while (contents.size() - offset >= kHeaderBytes) {
    const std::uint32_t len = load_le32(contents.data() + offset);
    const std::uint32_t crc = load_le32(contents.data() + offset + 4);
    if (len > kWalMaxRecordBytes ||
        len > contents.size() - offset - kHeaderBytes) {
      break;  // implausible length: torn tail or corrupt header
    }
    const std::span<const std::uint8_t> payload(
        contents.data() + offset + kHeaderBytes, len);
    if (crc32(payload) != crc) break;
    if (replay) replay(payload);
    ++stats.records_recovered;
    offset += kHeaderBytes + len;
  }
  stats.bytes_recovered = offset;
  stats.dropped_bytes = contents.size() - offset;

  // Best-effort count of records lost to the corrupt tail: keep advancing on
  // plausible length fields (CRC no longer matters — these are dropped either
  // way); anything unparseable at the end counts as one torn record.
  std::size_t scan = offset;
  while (contents.size() - scan >= kHeaderBytes) {
    const std::uint32_t len = load_le32(contents.data() + scan);
    if (len > kWalMaxRecordBytes || len > contents.size() - scan - kHeaderBytes) {
      break;
    }
    ++stats.dropped_records;
    scan += kHeaderBytes + len;
  }
  if (scan < contents.size()) ++stats.dropped_records;

  if (stats.dropped_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      ::close(fd);
      return std::nullopt;
    }
  }
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    ::close(fd);
    return std::nullopt;
  }

  if (open_stats != nullptr) *open_stats = stats;
  return Wal(fd, offset, options);
}

Wal::Wal(Wal&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      end_offset_(other.end_offset_),
      options_(other.options_),
      stats_(other.stats_),
      appends_since_sync_(other.appends_since_sync_),
      dirty_(other.dirty_),
      scratch_(std::move(other.scratch_)) {}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    end_offset_ = other.end_offset_;
    options_ = other.options_;
    stats_ = other.stats_;
    appends_since_sync_ = other.appends_since_sync_;
    dirty_ = other.dirty_;
    scratch_ = std::move(other.scratch_);
  }
  return *this;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

WalIoError Wal::append(std::span<const std::uint8_t> payload) {
  DSM_REQUIRE(fd_ >= 0);
  DSM_REQUIRE(payload.size() <= kWalMaxRecordBytes);
  scratch_.resize(kHeaderBytes + payload.size());
  store_le32(scratch_.data(), static_cast<std::uint32_t>(payload.size()));
  store_le32(scratch_.data() + 4, crc32(payload));
  std::memcpy(scratch_.data() + kHeaderBytes, payload.data(), payload.size());

  // The record must land whole or not at all.  A failed (possibly partial)
  // write leaves garbage past end_offset_; truncate back to the committed
  // boundary before every retry and after giving up, so the log tail is
  // never a half-record — recovery and crash semantics stay exact.
  int saved_errno = 0;
  bool written = false;
  for (int attempt = 0; attempt <= kWalWriteRetries; ++attempt) {
    if (attempt > 0) {
      ++stats_.write_retries;
      ::usleep(static_cast<useconds_t>(50u << (attempt - 1)));
    }
    if (write_all(io(), fd_, scratch_.data(), scratch_.size())) {
      written = true;
      break;
    }
    saved_errno = errno;
    if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(end_offset_), SEEK_SET) < 0) {
      // Can't restore the boundary — the fd itself is broken.  Stop retrying;
      // open() would still recover the committed prefix via the CRC scan.
      break;
    }
  }
  if (!written) {
    ++stats_.write_errors;
    return saved_errno == ENOSPC ? WalIoError::kNoSpace : WalIoError::kWrite;
  }
  end_offset_ += scratch_.size();
  ++stats_.appends;
  stats_.bytes += scratch_.size();
  ++appends_since_sync_;
  // Group mode defers the policy's sync point to the owner's group_sync()
  // barrier; records accumulate in appends_since_sync_ until then.
  if (options_.group_commit) return WalIoError::kNone;
  switch (options_.fsync) {
    case FsyncPolicy::kNone:
      break;
    case FsyncPolicy::kInterval:
      if (appends_since_sync_ >= options_.fsync_interval) return sync();
      break;
    case FsyncPolicy::kEvery:
      return sync();
  }
  return WalIoError::kNone;
}

WalIoError Wal::fsync_once() noexcept {
  if (io().fsync(fd_) != 0) {
    ++stats_.fsync_errors;
    return WalIoError::kFsync;
  }
  return WalIoError::kNone;
}

WalIoError Wal::sync() {
  DSM_REQUIRE(fd_ >= 0);
  if (appends_since_sync_ == 0 && !dirty_) return WalIoError::kNone;
  // Bounded retry, then sticky-dirty.  Linux clears the fd's error state
  // after reporting an fsync failure, so a later "successful" fsync does NOT
  // prove the earlier pages hit disk — but our failure model is injected
  // failpoints and transient device errors, where pages stay in cache and a
  // successful retry does cover them; dirty_ is cleared only on success.
  WalIoError err = WalIoError::kNone;
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) ::usleep(static_cast<useconds_t>(50u << (attempt - 1)));
    err = fsync_once();
    if (err == WalIoError::kNone) {
      ++stats_.fsyncs;
      appends_since_sync_ = 0;
      dirty_ = false;
      return WalIoError::kNone;
    }
  }
  dirty_ = true;
  return err;
}

WalIoError Wal::group_sync() {
  DSM_REQUIRE(fd_ >= 0);
  if (options_.fsync == FsyncPolicy::kNone && !dirty_) {
    return WalIoError::kNone;  // the policy never syncs; nothing to amortize
  }
  const bool covering = appends_since_sync_ > 0;
  const WalIoError err = sync();
  if (err == WalIoError::kNone && covering) ++stats_.group_commits;
  return err;
}

}  // namespace dsm
