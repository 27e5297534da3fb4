#include "dsm/audit/trace_io.h"

#include <algorithm>
#include <array>

#include "dsm/codec/codec.h"
#include "dsm/storage/wal_sink.h"

namespace dsm {
namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'o', 'p', 't', 'c',
                                                'm', 'l', 'o', 'g'};
constexpr std::uint8_t kVersion = 1;

}  // namespace

std::vector<std::uint8_t> export_run_archive(const RunRecorder& recorder) {
  ByteWriter w;
  w.bytes(kMagic);
  w.u8(kVersion);
  w.u32(static_cast<std::uint32_t>(recorder.history().n_procs()));
  w.u32(static_cast<std::uint32_t>(recorder.history().n_vars()));
  std::vector<std::uint8_t> out = std::move(w).take();
  const std::uint64_t end = recorder.log_bytes();
  for (std::uint64_t at = 0; at < end;) at = recorder.copy_chunk(at, out);
  return out;
}

std::optional<ImportedRun> import_run_archive(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto magic = r.take(kMagic.size());
  const auto version = r.u8();
  const auto procs = r.u32();
  const auto vars = r.u32();
  if (!magic || !std::ranges::equal(*magic, kMagic) || version != kVersion ||
      !procs || *procs == 0 || *procs > kMaxProcs || !vars || *vars == 0 ||
      *vars > kMaxVars) {
    return std::nullopt;
  }
  RunRecorder recorder(*procs, *vars);
  if (!replay_wal_record(r.rest(), recorder, nullptr, nullptr)) {
    return std::nullopt;
  }
  return std::move(recorder).take_run();
}

}  // namespace dsm
