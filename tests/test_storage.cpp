// optcm — storage subsystem tests: WAL framing and crash recovery (torn
// tails truncated at every byte offset, a bit-flip corruption fuzz over the
// tail record), fsync accounting per policy, atomic snapshot files, the
// per-node state-dir layout, and the recorder-log commit → replay roundtrip
// back into a RunRecorder.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "dsm/protocols/replay_filter.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/storage/snapshot_file.h"
#include "dsm/storage/state_dir.h"
#include "dsm/storage/wal.h"
#include "dsm/storage/wal_sink.h"

namespace dsm {
namespace {

/// mkdtemp-backed scratch directory, removed recursively on destruction.
class TempDir {
 public:
  TempDir() {
    std::string templ = "/tmp/optcm-storage-XXXXXX";
    const char* made = ::mkdtemp(templ.data());
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

std::vector<std::uint8_t> payload_of(std::uint8_t tag, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < len; ++i)
    p[i] = static_cast<std::uint8_t>((tag + i * 7u) & 0xFFu);
  return p;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spew(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::uint64_t>(st.st_size);
}

/// Opens `path`, collecting every replayed payload; asserts open succeeds.
std::vector<std::vector<std::uint8_t>> replayed_payloads(
    const std::string& path, WalOpenStats* stats = nullptr) {
  std::vector<std::vector<std::uint8_t>> got;
  auto wal = Wal::open(path, WalOptions{.fsync = FsyncPolicy::kNone},
                       [&got](std::span<const std::uint8_t> p) {
                         got.emplace_back(p.begin(), p.end());
                       },
                       stats);
  EXPECT_TRUE(wal.has_value()) << path;
  return got;
}

TEST(FsyncPolicy, ParsesAndPrints) {
  EXPECT_EQ(parse_fsync_policy("none"), FsyncPolicy::kNone);
  EXPECT_EQ(parse_fsync_policy("interval"), FsyncPolicy::kInterval);
  EXPECT_EQ(parse_fsync_policy("every"), FsyncPolicy::kEvery);
  EXPECT_EQ(parse_fsync_policy(""), std::nullopt);
  EXPECT_EQ(parse_fsync_policy("EVERY"), std::nullopt);
  EXPECT_EQ(parse_fsync_policy("always"), std::nullopt);
  for (const FsyncPolicy p :
       {FsyncPolicy::kNone, FsyncPolicy::kInterval, FsyncPolicy::kEvery}) {
    EXPECT_EQ(parse_fsync_policy(to_string(p)), p);
  }
}

TEST(Crc32, MatchesKnownVectorsAndSeesBitFlips) {
  // The IEEE 802.3 check value: CRC-32 of the ASCII digits "123456789".
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  for (std::size_t i = 0; i < check.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = check;
      mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << bit));
      EXPECT_NE(crc32(mutated), crc32(check));
    }
  }
}

TEST(StateDirTest, CreatesRecursivelyAndNamesFiles) {
  TempDir tmp;
  const std::string root = tmp.file("a/b/c");
  const auto dir = StateDir::open(root);
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(dir->root(), root);
  EXPECT_EQ(dir->wal_path(), root + "/wal.log");
  EXPECT_EQ(dir->snapshot_path(), root + "/snapshot.bin");
  struct stat st{};
  ASSERT_EQ(::stat(root.c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  // Re-opening an existing directory is fine (the respawn path).
  EXPECT_TRUE(StateDir::open(root).has_value());
  EXPECT_EQ(StateDir::node_subdir("/x/state", 3), "/x/state/node-3");
}

TEST(StateDirTest, RejectsPathOccupiedByAFile) {
  TempDir tmp;
  const std::string path = tmp.file("occupied");
  spew(path, std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_FALSE(StateDir::open(path).has_value());
  // A file in the middle of the would-be hierarchy also fails.
  EXPECT_FALSE(StateDir::open(path + "/below").has_value());
}

TEST(WalTest, AppendThenReplayInOrder) {
  TempDir tmp;
  const std::string path = tmp.file("wal.log");
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(1, 0), payload_of(2, 1), payload_of(3, 33),
      payload_of(4, 200)};
  std::uint64_t framed = 0;
  {
    auto wal = Wal::open(path, WalOptions{.fsync = FsyncPolicy::kEvery},
                         [](std::span<const std::uint8_t>) { FAIL(); });
    ASSERT_TRUE(wal.has_value());
    for (const auto& p : payloads) {
      ASSERT_EQ(wal->append(p), WalIoError::kNone);
      framed += 8 + p.size();
    }
    EXPECT_EQ(wal->stats().appends, payloads.size());
    EXPECT_EQ(wal->stats().bytes, framed);
  }
  WalOpenStats stats;
  EXPECT_EQ(replayed_payloads(path, &stats), payloads);
  EXPECT_EQ(stats.records_recovered, payloads.size());
  EXPECT_EQ(stats.bytes_recovered, framed);
  EXPECT_EQ(stats.dropped_records, 0u);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  EXPECT_EQ(file_size(path), framed);
}

TEST(WalTest, FsyncAccountingFollowsPolicy) {
  TempDir tmp;
  const auto record = payload_of(9, 16);

  auto every = Wal::open(tmp.file("every.log"),
                         WalOptions{.fsync = FsyncPolicy::kEvery}, {});
  ASSERT_TRUE(every.has_value());
  for (int i = 0; i < 3; ++i) ASSERT_EQ(every->append(record), WalIoError::kNone);
  EXPECT_EQ(every->stats().fsyncs, 3u);

  auto none = Wal::open(tmp.file("none.log"),
                        WalOptions{.fsync = FsyncPolicy::kNone}, {});
  ASSERT_TRUE(none.has_value());
  for (int i = 0; i < 3; ++i) ASSERT_EQ(none->append(record), WalIoError::kNone);
  EXPECT_EQ(none->stats().fsyncs, 0u);
  EXPECT_EQ(none->sync(), WalIoError::kNone);  // checkpoint barrier forces one
  EXPECT_EQ(none->stats().fsyncs, 1u);
  EXPECT_EQ(none->sync(), WalIoError::kNone);  // nothing pending: no-op
  EXPECT_EQ(none->stats().fsyncs, 1u);

  auto interval = Wal::open(
      tmp.file("interval.log"),
      WalOptions{.fsync = FsyncPolicy::kInterval, .fsync_interval = 2}, {});
  ASSERT_TRUE(interval.has_value());
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(interval->append(record), WalIoError::kNone);
  EXPECT_EQ(interval->stats().fsyncs, 2u);  // after appends 2 and 4
  EXPECT_EQ(interval->sync(), WalIoError::kNone);  // flushes the odd record
  EXPECT_EQ(interval->stats().fsyncs, 3u);
}

TEST(WalTest, TornTailTruncatedAtEveryOffset) {
  TempDir tmp;
  const std::string path = tmp.file("wal.log");
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(1, 5), payload_of(2, 9), payload_of(3, 14)};
  std::vector<std::uint64_t> boundary = {0};  // offsets where a record ends
  {
    auto wal = Wal::open(path, WalOptions{.fsync = FsyncPolicy::kNone}, {});
    ASSERT_TRUE(wal.has_value());
    for (const auto& p : payloads) {
      ASSERT_EQ(wal->append(p), WalIoError::kNone);
      boundary.push_back(boundary.back() + 8 + p.size());
    }
  }
  const std::vector<std::uint8_t> full = slurp(path);
  ASSERT_EQ(full.size(), boundary.back());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string torn = tmp.file("torn-" + std::to_string(cut));
    spew(torn, std::span(full.data(), cut));
    // Whole records fully inside the prefix survive; the torn one vanishes.
    std::size_t whole = 0;
    while (whole + 1 < boundary.size() && boundary[whole + 1] <= cut) ++whole;
    std::vector<std::vector<std::uint8_t>> got;
    WalOpenStats stats;
    std::optional<Wal> wal = Wal::open(
        torn, WalOptions{.fsync = FsyncPolicy::kNone},
        [&got](std::span<const std::uint8_t> p) {
          got.emplace_back(p.begin(), p.end());
        },
        &stats);
    ASSERT_TRUE(wal.has_value());
    ASSERT_EQ(got.size(), whole);
    for (std::size_t i = 0; i < whole; ++i) EXPECT_EQ(got[i], payloads[i]);
    EXPECT_EQ(stats.records_recovered, whole);
    EXPECT_EQ(stats.bytes_recovered, boundary[whole]);
    EXPECT_EQ(stats.dropped_bytes, cut - boundary[whole]);
    EXPECT_EQ(file_size(torn), boundary[whole]);  // tail truncated away
    // The recovered log extends cleanly.
    ASSERT_EQ(wal->append(payloads[0]), WalIoError::kNone);
    wal.reset();
    EXPECT_EQ(replayed_payloads(torn).size(), whole + 1);
  }
}

TEST(WalTest, BitFlipFuzzRecoversLongestValidPrefix) {
  TempDir tmp;
  const std::string path = tmp.file("wal.log");
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(1, 24), payload_of(2, 7), payload_of(3, 40),
      payload_of(4, 19)};
  {
    auto wal = Wal::open(path, WalOptions{.fsync = FsyncPolicy::kNone}, {});
    ASSERT_TRUE(wal.has_value());
    for (const auto& p : payloads)
      ASSERT_EQ(wal->append(p), WalIoError::kNone);
  }
  const std::vector<std::uint8_t> full = slurp(path);
  const std::size_t tail_start = full.size() - (8 + payloads.back().size());

  // Flip one bit of every byte of the tail record (header and payload alike):
  // open() must never crash, must recover exactly the first three records,
  // and must report the mangled tail as dropped.
  for (std::size_t i = tail_start; i < full.size(); ++i) {
    SCOPED_TRACE("flip at offset " + std::to_string(i));
    std::vector<std::uint8_t> mutated = full;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << (i % 8)));
    const std::string fuzzed = tmp.file("fuzz-tail");
    spew(fuzzed, mutated);
    WalOpenStats stats;
    const auto got = replayed_payloads(fuzzed, &stats);
    ASSERT_EQ(got.size(), payloads.size() - 1);
    for (std::size_t k = 0; k + 1 < payloads.size(); ++k)
      EXPECT_EQ(got[k], payloads[k]);
    EXPECT_EQ(stats.records_recovered, payloads.size() - 1);
    EXPECT_EQ(stats.bytes_recovered, tail_start);
    EXPECT_GE(stats.dropped_records, 1u);
    EXPECT_EQ(stats.dropped_bytes, full.size() - tail_start);
  }

  // A flip in an earlier record cuts the valid prefix there — every record
  // from the flipped one on is dropped, none is half-applied.
  for (const std::size_t i : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("flip record 0 at offset " + std::to_string(i));
    std::vector<std::uint8_t> mutated = full;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ 1u);
    const std::string fuzzed = tmp.file("fuzz-head");
    spew(fuzzed, mutated);
    WalOpenStats stats;
    EXPECT_TRUE(replayed_payloads(fuzzed, &stats).empty());
    EXPECT_EQ(stats.records_recovered, 0u);
    EXPECT_EQ(stats.dropped_bytes, full.size());
  }
}

TEST(SnapshotFileTest, RoundtripOverwriteAndNoTmpResidue) {
  TempDir tmp;
  const std::string path = tmp.file("snapshot.bin");
  EXPECT_EQ(SnapshotFile::read(path), std::nullopt);  // absent

  const auto first = payload_of(5, 100);
  ASSERT_TRUE(SnapshotFile::write(path, first));
  EXPECT_EQ(SnapshotFile::read(path), first);

  const auto second = payload_of(6, 37);  // replace: readers see old xor new
  ASSERT_TRUE(SnapshotFile::write(path, second));
  EXPECT_EQ(SnapshotFile::read(path), second);

  const auto empty = std::vector<std::uint8_t>{};
  ASSERT_TRUE(SnapshotFile::write(path, empty));
  EXPECT_EQ(SnapshotFile::read(path), empty);

  struct stat st{};
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);  // tmp renamed away
}

TEST(SnapshotFileTest, RejectsTornAndCorruptFiles) {
  TempDir tmp;
  const std::string path = tmp.file("snapshot.bin");
  const auto bytes = payload_of(7, 64);
  ASSERT_TRUE(SnapshotFile::write(path, bytes));
  const std::vector<std::uint8_t> full = slurp(path);
  ASSERT_EQ(full.size(), 8 + bytes.size());

  for (std::size_t i = 0; i < full.size(); ++i) {
    SCOPED_TRACE("corrupt byte " + std::to_string(i));
    std::vector<std::uint8_t> mutated = full;
    mutated[i] = static_cast<std::uint8_t>(mutated[i] ^ (1u << (i % 8)));
    spew(path, mutated);
    EXPECT_EQ(SnapshotFile::read(path), std::nullopt);
  }
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7},
                                std::size_t{8}, full.size() - 1}) {
    SCOPED_TRACE("truncate to " + std::to_string(cut));
    spew(path, std::span(full.data(), cut));
    EXPECT_EQ(SnapshotFile::read(path), std::nullopt);
  }
  spew(path, full);  // pristine bytes still read back fine
  EXPECT_EQ(SnapshotFile::read(path), bytes);
}

TEST(WalSinkTest, RecorderTeesLiveRecordsButNotRestores) {
  TempDir tmp;
  auto wal = Wal::open(tmp.file("wal.log"),
                       WalOptions{.fsync = FsyncPolicy::kNone}, {});
  ASSERT_TRUE(wal.has_value());
  RunRecorder rec(2, 1);
  Operation replayed;
  replayed.proc = 0;
  replayed.var = 0;
  replayed.value = 7;
  rec.restore_op(replayed);  // a replayed prefix is already in the WAL
  WalLogCommitter log(*wal, rec, rec.log_bytes());
  EXPECT_EQ(log.commit(), WalIoError::kNone);  // nothing new: no record
  EXPECT_EQ(wal->stats().appends, 0u);

  (void)rec.record_write(1, 0, 9);  // live history is committed
  rec.on_apply(0, WriteId{1, 1}, false);
  EXPECT_EQ(log.commit(), WalIoError::kNone);
  EXPECT_EQ(wal->stats().appends, 1u);
  EXPECT_EQ(log.commit(), WalIoError::kNone);  // empty batch: no record
  EXPECT_EQ(wal->stats().appends, 1u);
}

TEST(WalSinkTest, SpillReplayRoundtripThroughRecorder) {
  TempDir tmp;
  const std::string path = tmp.file("wal.log");
  const WriteId w{0, 1};
  RunEvent spilled;
  spilled.order = 0;
  spilled.time = 42;
  spilled.at = 1;
  spilled.kind = EvKind::kApply;
  spilled.write = w;
  spilled.delayed = true;
  spilled.clock = VectorClock({1, 0});
  {
    auto wal =
        Wal::open(path, WalOptions{.fsync = FsyncPolicy::kEvery}, {});
    ASSERT_TRUE(wal.has_value());
    RunRecorder source(2, 1);
    source.record_incarnation(3);
    (void)source.record_write(0, 0, 7);
    source.restore_event(spilled);
    source.record_read(1, 0, ReadResult{7, w});
    WalLogCommitter log(*wal, source, 0);
    ASSERT_EQ(log.commit(), WalIoError::kNone);
  }

  RunRecorder rec(2, 1);
  ReplayFilterObserver filter(rec);
  std::uint64_t last_boot = 0;
  auto wal = Wal::open(path, WalOptions{.fsync = FsyncPolicy::kNone},
                       [&](std::span<const std::uint8_t> record) {
                         EXPECT_TRUE(replay_wal_record(record, rec, &filter,
                                                       &last_boot));
                       });
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(last_boot, 3u);

  // History restored verbatim, with the same deterministic WriteId.
  ASSERT_EQ(rec.history().local(0).size(), 1u);
  ASSERT_EQ(rec.history().local(1).size(), 1u);
  const Operation& wr = rec.history().op(rec.history().local(0)[0]);
  EXPECT_TRUE(wr.is_write());
  EXPECT_EQ(wr.write_id, w);
  EXPECT_EQ(wr.value, 7);
  const Operation& rd = rec.history().op(rec.history().local(1)[0]);
  EXPECT_TRUE(rd.is_read());
  EXPECT_EQ(rd.write_id, w);

  // The event came back field-for-field, timestamp included.
  ASSERT_EQ(rec.events().size(), 1u);
  const RunEvent& got = rec.events()[0];
  EXPECT_EQ(got.order, spilled.order);
  EXPECT_EQ(got.time, spilled.time);
  EXPECT_EQ(got.at, spilled.at);
  EXPECT_EQ(got.kind, spilled.kind);
  EXPECT_EQ(got.write, spilled.write);
  EXPECT_EQ(got.delayed, spilled.delayed);
  EXPECT_TRUE(std::ranges::equal(got.clock.components(),
                                 spilled.clock.components()));

  // The filter was preseeded: a live redelivery of the replayed apply (an
  // ARQ retransmission whose ACK died with the process) is suppressed.
  filter.on_apply(1, w, true);
  EXPECT_EQ(filter.suppressed(), 1u);
  EXPECT_EQ(rec.events().size(), 1u);
}

/// Converts a hex string to bytes (fixture helper).
std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// One WAL record exactly as the WalEventSink that preceded the encoded
/// recorder log wrote it: an incarnation, a write, its send and a delayed
/// receipt + apply at p1, a read with its return, a read of ⊥, and a skip.
/// It must replay to the same run — and the recorder, logging the replayed
/// records again, must produce the same bytes: the on-disk format is the
/// recorder's own.
TEST(WalSinkTest, RecordFromTheEventSinkEraReplaysToTheSameRunAndBytes) {
  const auto record = from_hex(
      "0302010100010e00010200dc0b000000010000010e00030100000201a81401010001"
      "0000010e00030100000202a91401020001000000ffffffffffffffffff0101000100"
      "01010e000102048c15010300010000010e000001000200ffffffffffffffffff0100"
      "000207b81702040001010200ffffffffffffffffff010000");
  ASSERT_EQ(record.size(), 126u);
  RunRecorder rec(3, 2);
  std::uint64_t last_boot = 0;
  ASSERT_TRUE(replay_wal_record(record, rec, nullptr, &last_boot));
  EXPECT_EQ(last_boot, 2u);

  const WriteId w{0, 1};
  GlobalHistory want(3, 2);
  EXPECT_EQ(want.add_write(0, 1, 7), w);
  want.add_read(1, 1, 7, w);
  want.add_read(2, 0, kBottom, kNoWrite);
  EXPECT_TRUE(std::ranges::equal(rec.history().all_ops(), want.all_ops()));

  const auto& events = rec.events();
  ASSERT_EQ(events.size(), 5u);
  const auto expect_event = [&](std::size_t i, std::uint64_t order,
                                std::uint64_t time, ProcessId at, EvKind kind,
                                WriteId other, Value value, bool delayed,
                                std::vector<std::uint64_t> clock) {
    SCOPED_TRACE("event " + std::to_string(i));
    const RunEvent& e = events[i];
    EXPECT_EQ(e.order, order);
    EXPECT_EQ(e.time, time);
    EXPECT_EQ(e.at, at);
    EXPECT_EQ(e.kind, kind);
    EXPECT_EQ(e.write, w);
    EXPECT_EQ(e.other, other);
    EXPECT_EQ(e.value, value);
    EXPECT_EQ(e.delayed, delayed);
    EXPECT_TRUE(std::ranges::equal(e.clock.components(), clock));
  };
  expect_event(0, 0, 1500, 0, EvKind::kSend, kNoWrite, 7, false, {1, 0, 0});
  expect_event(1, 1, 2600, 1, EvKind::kReceipt, kNoWrite, 7, false,
               {1, 0, 0});
  expect_event(2, 2, 2601, 1, EvKind::kApply, kNoWrite, kBottom, true, {});
  expect_event(3, 4, 2700, 1, EvKind::kReturn, kNoWrite, 7, false, {});
  expect_event(4, 7, 3000, 2, EvKind::kSkip, WriteId{1, 2}, kBottom, false,
               {});
  EXPECT_EQ(events[0].var, 1u);
  EXPECT_EQ(events[3].var, 1u);

  std::vector<std::uint8_t> logged;
  EXPECT_EQ(rec.copy_chunk(0, logged), rec.log_bytes());
  EXPECT_EQ(logged, record);
}

TEST(WalSinkTest, MalformedRecordIsRejected) {
  RunRecorder rec(2, 1);
  const std::vector<std::uint8_t> garbage = {0x77, 0x01, 0x02};
  EXPECT_FALSE(replay_wal_record(garbage, rec, nullptr, nullptr));
  // A truncated-but-valid-kind record is malformed too.
  const std::vector<std::uint8_t> truncated = {0x01, 0x01};
  EXPECT_FALSE(replay_wal_record(truncated, rec, nullptr, nullptr));
  EXPECT_TRUE(rec.events().empty());
}

// -------------------------------------------------- storage failpoints -----
// The chaos-engine contract (docs/FAULTS.md): injected I/O failures surface
// as typed WalIoError values, never as aborts, and never leave a half-written
// record on the log tail.

TEST(FailpointTest, TransientWriteFailureIsRetriedAndAbsorbed) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // The 2nd write call fails once with EIO; the bounded retry re-issues it.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kWrite,
                           StorageFailpoint::Kind::kEio, 2, 1}});
  auto wal = Wal::open(path, {.fsync = FsyncPolicy::kNone, .io = &hooks},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->append(payload_of(1, 40)), WalIoError::kNone);
  EXPECT_EQ(wal->append(payload_of(2, 40)), WalIoError::kNone);
  EXPECT_EQ(wal->stats().write_retries, 1u);
  EXPECT_EQ(wal->stats().write_errors, 0u);
  EXPECT_EQ(hooks.injected(), 1u);
  EXPECT_EQ(replayed_payloads(path).size(), 2u);
}

TEST(FailpointTest, ShortWritesAreCompletedByTheWriteLoop) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // Every write transfers half the requested bytes; the write_all loop must
  // keep going until the record is complete.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kWrite,
                           StorageFailpoint::Kind::kShort, 1, 0}});
  auto wal = Wal::open(path, {.fsync = FsyncPolicy::kNone, .io = &hooks},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(wal->append(payload_of(i, 100)), WalIoError::kNone) << int(i);
  }
  EXPECT_EQ(wal->stats().write_errors, 0u);
  const auto got = replayed_payloads(path);
  ASSERT_EQ(got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], payload_of(i, 100));
}

TEST(FailpointTest, EnospcSurfacesAsNoSpaceAndDropsOnlyThatAppend) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // Writes 3..6 fail with ENOSPC — more than the retry budget, so append 3
  // is lost; the disk "recovers" afterwards and append 4 lands.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kWrite,
                           StorageFailpoint::Kind::kEnospc, 3,
                           kWalWriteRetries + 1}});
  auto wal = Wal::open(path, {.fsync = FsyncPolicy::kNone, .io = &hooks},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->append(payload_of(1, 30)), WalIoError::kNone);
  EXPECT_EQ(wal->append(payload_of(2, 30)), WalIoError::kNone);
  EXPECT_EQ(wal->append(payload_of(3, 30)), WalIoError::kNoSpace);
  EXPECT_EQ(wal->append(payload_of(4, 30)), WalIoError::kNone);
  EXPECT_EQ(wal->stats().write_errors, 1u);
  const auto got = replayed_payloads(path);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2], payload_of(4, 30));  // record 3 is the one missing
}

TEST(FailpointTest, FsyncFailureFollowsFsyncgateSemantics) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // fsync fails persistently (outlasting sync()'s internal retry of 3); the
  // record must already be in the log (page cache), and the WAL stays
  // sticky-dirty until a later fsync succeeds.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kFsync,
                           StorageFailpoint::Kind::kEio, 1, 3}});
  auto wal = Wal::open(path, {.fsync = FsyncPolicy::kEvery, .io = &hooks},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->append(payload_of(9, 50)), WalIoError::kFsync);
  EXPECT_TRUE(wal->dirty());
  EXPECT_EQ(wal->stats().fsync_errors, 3u);
  // The record survived despite the failed fsync.
  EXPECT_EQ(replayed_payloads(path).size(), 1u);
  // A later successful fsync clears the dirty flag.
  EXPECT_EQ(wal->sync(), WalIoError::kNone);
  EXPECT_FALSE(wal->dirty());
}

// -------------------------------------------------- WAL group commit -------
// The tick-edge batching mode (docs/PERF.md): append() defers the policy's
// sync point entirely; group_sync() — one call per NetLoop tick in the real
// node — makes one fsync cover every record since the last barrier.

TEST(GroupCommitTest, OneFsyncCoversEveryAppendSinceTheLastBarrier) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // Interval 2 would normally fsync every other append; group mode must
  // override that and fsync only at the barrier.
  auto wal = Wal::open(path,
                       {.fsync = FsyncPolicy::kInterval,
                        .fsync_interval = 2,
                        .group_commit = true},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  for (std::uint8_t i = 0; i < 7; ++i) {
    EXPECT_EQ(wal->append(payload_of(i, 40)), WalIoError::kNone);
  }
  EXPECT_EQ(wal->stats().fsyncs, 0u);
  EXPECT_EQ(wal->unsynced_appends(), 7u);
  EXPECT_EQ(wal->group_sync(), WalIoError::kNone);
  EXPECT_EQ(wal->stats().fsyncs, 1u);
  EXPECT_EQ(wal->stats().group_commits, 1u);
  EXPECT_EQ(wal->unsynced_appends(), 0u);
  // An empty tick is free: no pending appends, clean log, no fsync.
  EXPECT_EQ(wal->group_sync(), WalIoError::kNone);
  EXPECT_EQ(wal->stats().fsyncs, 1u);
  EXPECT_EQ(wal->stats().group_commits, 1u);
}

TEST(GroupCommitTest, FsyncFailureMidGroupKeepsStickyDirtyUntilSuccess) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // The barrier's fsync fails persistently (outlasting sync()'s retry of 3).
  // Every record of the group must already be in the log (page cache), the
  // WAL goes sticky-dirty, and the failed barrier does NOT count as a group
  // commit; a later successful barrier clears the flag and covers the
  // records appended in between.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kFsync,
                           StorageFailpoint::Kind::kEio, 1, 3}});
  auto wal = Wal::open(path,
                       {.fsync = FsyncPolicy::kInterval,
                        .group_commit = true,
                        .io = &hooks},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  for (std::uint8_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wal->append(payload_of(i, 40)), WalIoError::kNone);
  }
  EXPECT_EQ(wal->group_sync(), WalIoError::kFsync);
  EXPECT_TRUE(wal->dirty());
  EXPECT_EQ(wal->stats().fsync_errors, 3u);
  EXPECT_EQ(wal->stats().group_commits, 0u);
  // The group survived the failed barrier — durability unknown, data intact.
  EXPECT_EQ(replayed_payloads(path).size(), 4u);
  // Appends keep landing while dirty; the disk recovers and the next barrier
  // covers both the old group and the new appends.
  EXPECT_EQ(wal->append(payload_of(9, 40)), WalIoError::kNone);
  EXPECT_EQ(wal->group_sync(), WalIoError::kNone);
  EXPECT_FALSE(wal->dirty());
  EXPECT_EQ(wal->stats().group_commits, 1u);
  EXPECT_EQ(replayed_payloads(path).size(), 5u);
}

TEST(GroupCommitTest, ExplicitSyncBarriersStillWorkInGroupMode) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // The snapshot spill's WAL-before-snapshot ordering uses sync(); group
  // mode must not defer it.
  auto wal = Wal::open(path,
                       {.fsync = FsyncPolicy::kInterval, .group_commit = true},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->append(payload_of(1, 40)), WalIoError::kNone);
  EXPECT_EQ(wal->sync(), WalIoError::kNone);
  EXPECT_EQ(wal->stats().fsyncs, 1u);
  // sync() is a plain barrier, not a group commit.
  EXPECT_EQ(wal->stats().group_commits, 0u);
  EXPECT_EQ(wal->unsynced_appends(), 0u);
}

/// Fuzz the failpoint offset: disk dies (EIO, forever) at every possible
/// write call.  Whatever number of appends succeeded, reopen must recover
/// exactly that prefix — typed errors, no aborts, no torn tail ever.
TEST(FailpointTest, PermanentEioAtEveryOffsetRecoversTheExactPrefix) {
  constexpr int kAppends = 8;
  for (std::uint64_t fail_at = 1; fail_at <= kAppends + 2; ++fail_at) {
    TempDir dir;
    const std::string path = dir.file("wal.log");
    FailpointIoHooks hooks({{StorageFailpoint::Op::kWrite,
                             StorageFailpoint::Kind::kEio, fail_at, 0}});
    std::size_t committed = 0;
    {
      auto wal = Wal::open(path, {.fsync = FsyncPolicy::kNone, .io = &hooks},
                           [](std::span<const std::uint8_t>) {});
      ASSERT_TRUE(wal.has_value()) << "fail_at=" << fail_at;
      for (int i = 0; i < kAppends; ++i) {
        const auto err = wal->append(payload_of(
            static_cast<std::uint8_t>(i), 25 + static_cast<std::size_t>(i)));
        if (err == WalIoError::kNone) ++committed;
      }
      EXPECT_EQ(committed, std::min<std::size_t>(fail_at - 1, kAppends))
          << "fail_at=" << fail_at;
    }
    const auto got = replayed_payloads(path);
    ASSERT_EQ(got.size(), committed) << "fail_at=" << fail_at;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], payload_of(static_cast<std::uint8_t>(i),
                                   25 + static_cast<std::size_t>(i)));
    }
  }
}

TEST(FailpointTest, SnapshotWriteFailureLeavesThePreviousSnapshotIntact) {
  TempDir dir;
  const std::string path = dir.file("snapshot.bin");
  const auto old_bytes = payload_of(1, 200);
  ASSERT_TRUE(SnapshotFile::write(path, old_bytes));
  // Every subsequent write fails with ENOSPC: the tmp-file write dies and
  // the rename never happens.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kWrite,
                           StorageFailpoint::Kind::kEnospc, 1, 0}});
  EXPECT_FALSE(SnapshotFile::write(path, payload_of(2, 300), &hooks));
  const auto back = SnapshotFile::read(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, old_bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FailpointTest, SnapshotFsyncFailureAlsoFailsTheWrite) {
  TempDir dir;
  const std::string path = dir.file("snapshot.bin");
  FailpointIoHooks hooks({{StorageFailpoint::Op::kFsync,
                           StorageFailpoint::Kind::kEio, 1, 0}});
  EXPECT_FALSE(SnapshotFile::write(path, payload_of(3, 64), &hooks));
  EXPECT_FALSE(SnapshotFile::read(path).has_value());
}

TEST(FailpointTest, CountersTrackMatchingCallsPerOperation) {
  // "Fail starting at the 3rd fsync" fires on fsync calls 3..5 regardless of
  // interleaved writes — counts are per operation.  Three consecutive
  // failures exhaust sync()'s internal retry, so append 3 surfaces kFsync.
  FailpointIoHooks hooks({{StorageFailpoint::Op::kFsync,
                           StorageFailpoint::Kind::kEio, 3, 3}});
  TempDir dir;
  const std::string path = dir.file("wal.log");
  auto wal = Wal::open(path, {.fsync = FsyncPolicy::kEvery, .io = &hooks},
                       [](std::span<const std::uint8_t>) {});
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->append(payload_of(1, 20)), WalIoError::kNone);
  EXPECT_EQ(wal->append(payload_of(2, 20)), WalIoError::kNone);
  EXPECT_EQ(wal->append(payload_of(3, 20)), WalIoError::kFsync);
  EXPECT_EQ(wal->append(payload_of(4, 20)), WalIoError::kNone);
  EXPECT_FALSE(wal->dirty());  // append 4's successful fsync covered the gap
  EXPECT_GE(hooks.write_calls(), 4u);
  EXPECT_EQ(hooks.fsync_calls(), 6u);  // 1 + 1 + 3 failing + 1
  EXPECT_EQ(hooks.injected(), 3u);
}

}  // namespace
}  // namespace dsm
