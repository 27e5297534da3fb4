// Tests for run archives: lossless round-trip, re-auditability of imported
// runs, and the one decoder's rejection of bytes that do not fit the run.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/audit/trace_io.h"
#include "dsm/codec/codec.h"
#include "dsm/history/checker.h"
#include "dsm/history/co_relation.h"
#include "dsm/protocols/subscription.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/objects_demo.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;
using Bytes = std::vector<std::uint8_t>;

/// A hand-written archive header, field by field as trace_io.h documents it.
Bytes header(std::uint64_t procs, std::uint64_t vars,
             std::uint8_t version = 1) {
  ByteWriter w;
  for (const char c : {'o', 'p', 't', 'c', 'm', 'l', 'o', 'g'}) {
    w.u8(static_cast<std::uint8_t>(c));
  }
  w.u8(version);
  w.u64(procs);
  w.u64(vars);
  return std::move(w).take();
}

/// A register op record (run_recorder.h: kOp, or kTypedOp with `typed`).
struct OpRecord {
  bool is_write = true;
  std::uint32_t proc = 0;
  std::uint32_t var = 0;
  std::int64_t value = 1;
  std::uint32_t wproc = 0;
  std::uint64_t wseq = 1;
};

void put_op(ByteWriter& w, const OpRecord& op, bool typed) {
  w.u8(typed ? 4 : 1);
  w.u8(op.is_write ? 1 : 0);
  w.u32(op.proc);
  w.u32(op.var);
  w.i64(op.value);
  w.u32(op.wproc);
  w.u64(op.wseq);
}

Bytes with_records(Bytes archive, const std::function<void(ByteWriter&)>& put) {
  ByteWriter w;
  put(w);
  const Bytes records = std::move(w).take();
  archive.insert(archive.end(), records.begin(), records.end());
  return archive;
}

/// The shape checks every accepted run passes: processes, writers and
/// variables inside the header's run, clocks and visible sets of length 0
/// or procs, and writes numbered 1, 2, … per process.
::testing::AssertionResult fits_its_shape(const ImportedRun& run) {
  const GlobalHistory& h = run.history;
  const std::size_t n = h.n_procs();
  const auto fits_procs = [n](std::size_t size) {
    return size == 0 || size == n;
  };
  for (const RunEvent& e : run.events) {
    if (e.at >= n || e.write.proc >= n || e.other.proc >= n ||
        e.var >= h.n_vars() || !fits_procs(e.clock.size())) {
      return ::testing::AssertionFailure() << event_to_string(e);
    }
  }
  for (ProcessId p = 0; p < n; ++p) {
    SeqNo writes = 0;
    for (const OpRef ref : h.local(p)) {
      const Operation& op = h.op(ref);
      if (op.proc != p || op.var >= h.n_vars() || op.write_id.proc >= n ||
          !fits_procs(op.visible.size()) ||
          (op.is_write() && op.write_id != WriteId{p, ++writes})) {
        return ::testing::AssertionFailure() << op_to_string(op);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

SimRunResult h1_run() {
  const ConstantLatency latency(sim_us(10));
  SimRunConfig cfg;
  cfg.n_procs = paper::kH1Procs;
  cfg.n_vars = paper::kH1Vars;
  cfg.latency = &latency;
  return run_sim(cfg, paper::make_h1_scripts());
}

SimRunResult typed_run() {
  const UniformLatency latency(sim_us(50), sim_us(400), 3);
  SimRunConfig cfg;
  cfg.n_procs = kObjectsDemoProcs;
  cfg.n_vars = kObjectsDemoVars;
  cfg.latency = &latency;
  cfg.protocol_config.objects = make_objects_demo_schema();
  return run_sim(cfg, make_objects_demo_scripts());
}

/// `rec`'s run re-logged with `edit` applied to its events, as an archive.
/// The ops go first: decoding needs each process's ops in program order,
/// not the live interleaving of ops and events.
Bytes archive_with(const RunRecorder& rec,
                   const std::function<void(std::vector<RunEvent>&)>& edit) {
  RunRecorder copy(rec.history().n_procs(), rec.history().n_vars());
  for (const Operation& op : rec.history().all_ops()) copy.restore_op(op);
  std::vector<RunEvent> events = rec.events();
  edit(events);
  for (const RunEvent& e : events) copy.restore_event(e);
  return export_run_archive(copy);
}

TEST(TraceIo, EmptyRunRoundTrips) {
  RunRecorder rec(2, 3);
  const auto imported = import_run_archive(export_run_archive(rec));
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(imported->history.n_procs(), 2u);
  EXPECT_EQ(imported->history.n_vars(), 3u);
  EXPECT_EQ(imported->history.size(), 0u);
  EXPECT_TRUE(imported->events.empty());
}

TEST(TraceIo, FullRunRoundTripsLosslessly) {
  DirectCluster c(ProtocolKind::kOptP, 3, 2);
  c.write(0, 0, 1);
  c.write(1, 1, -42);
  c.deliver_all();
  (void)c.read(2, 0);
  c.write(2, 1, 7);
  auto held = c.intercept_to(0);
  c.deliver_all();
  for (auto& f : held) c.inject(std::move(f));  // some delayed applies

  const auto imported = import_run_archive(export_run_archive(c.recorder()));
  ASSERT_TRUE(imported.has_value());

  const GlobalHistory& original = c.recorder().history();
  ASSERT_EQ(imported->history.size(), original.size());
  for (ProcessId p = 0; p < 3; ++p) {
    const auto got = imported->history.local(p);
    const auto want = original.local(p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(imported->history.op(got[i]), original.op(want[i]));
    }
  }
  const auto& original_events = c.recorder().events();
  ASSERT_EQ(imported->events.size(), original_events.size());
  for (std::size_t i = 0; i < original_events.size(); ++i) {
    EXPECT_TRUE(imported->events[i] == original_events[i]) << "event " << i;
  }
}

TEST(TraceIo, ImportedRunReauditsIdentically) {
  // Archive a random simulated run and check the auditor/checker verdicts
  // on the imported copy match the live ones.
  WorkloadSpec spec;
  spec.n_procs = 4;
  spec.n_vars = 4;
  spec.ops_per_proc = 30;
  spec.seed = 77;
  const UniformLatency latency(sim_us(50), sim_us(800), 9);
  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kAnbkh;
  cfg.n_procs = 4;
  cfg.n_vars = 4;
  cfg.latency = &latency;
  const auto result = run_sim(cfg, generate_workload(spec));
  ASSERT_TRUE(result.settled);

  const auto live_audit = OptimalityAuditor::audit(*result.recorder);
  const auto imported = import_run_archive(export_run_archive(*result.recorder));
  ASSERT_TRUE(imported.has_value());
  const auto replay_audit =
      OptimalityAuditor::audit(imported->history, imported->events);

  EXPECT_EQ(replay_audit.total_delayed(), live_audit.total_delayed());
  EXPECT_EQ(replay_audit.total_necessary(), live_audit.total_necessary());
  EXPECT_EQ(replay_audit.total_unnecessary(), live_audit.total_unnecessary());
  EXPECT_EQ(replay_audit.safe(), live_audit.safe());
  EXPECT_EQ(replay_audit.live(), live_audit.live());
  EXPECT_EQ(
      ConsistencyChecker::check(imported->history).consistent(),
      ConsistencyChecker::check(result.recorder->history()).consistent());
}

TEST(TraceIo, MalformedInputsRejected) {
  EXPECT_FALSE(import_run_archive({}).has_value());  // no header
  const Bytes text{'n', 'o', 't', ' ', 'a', ' ', 'l', 'o', 'g', 1, 1, 1};
  EXPECT_FALSE(import_run_archive(text).has_value());
  EXPECT_FALSE(import_run_archive(header(2, 1, /*version=*/2)).has_value());
  // The header's shape must lie inside the --procs/--vars ranges.
  EXPECT_FALSE(import_run_archive(header(0, 1)).has_value());
  EXPECT_FALSE(import_run_archive(header(1, 0)).has_value());
  EXPECT_FALSE(import_run_archive(header(kMaxProcs + 1, 1)).has_value());
  EXPECT_FALSE(import_run_archive(header(1, kMaxVars + 1)).has_value());
  EXPECT_FALSE(import_run_archive(header(std::uint64_t{1} << 40, 1)).has_value());
  EXPECT_TRUE(import_run_archive(header(kMaxProcs, kMaxVars)).has_value());
  // An unknown record tag.
  EXPECT_FALSE(import_run_archive(with_records(header(2, 1), [](ByteWriter& w) {
                 w.u8(9);
               })).has_value());
  // A truncated event record: its order, then nothing.
  EXPECT_FALSE(import_run_archive(with_records(header(2, 1), [](ByteWriter& w) {
                 w.u8(2);
                 w.u64(1);
               })).has_value());
}

TEST(TraceIo, TypedRunRoundTripsLosslessly) {
  // The five-spec objects demo exercises every spec's mutations and
  // accessors (visible sets included); the imported ops must compare equal
  // field for field — Operation::operator== covers spec/opcode/arg2/visible.
  const auto result = typed_run();
  ASSERT_TRUE(result.settled);

  const auto imported = import_run_archive(export_run_archive(*result.recorder));
  ASSERT_TRUE(imported.has_value());
  const GlobalHistory& original = result.recorder->history();
  ASSERT_EQ(imported->history.size(), original.size());
  bool saw_typed = false;
  for (ProcessId p = 0; p < kObjectsDemoProcs; ++p) {
    const auto got = imported->history.local(p);
    const auto want = original.local(p);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Operation& op = original.op(want[i]);
      EXPECT_EQ(imported->history.op(got[i]), op);
      saw_typed = saw_typed || op.spec != SpecId::kRegister;
    }
  }
  EXPECT_TRUE(saw_typed);  // the demo is not a pure register run
}

TEST(TraceIo, RegisterTracesCarryNoTypedKeys) {
  // A classic register run archives plain kOp records only: no typed-op
  // record, so no spec, opcode, arg2 or visible set anywhere.
  DirectCluster c(ProtocolKind::kOptP, 2, 2);
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  const Bytes archive = export_run_archive(c.recorder());
  ByteReader r(std::span<const std::uint8_t>(archive).subspan(
      header(2, 2).size()));
  LogRecord rec;
  std::size_t ops = 0;
  while (r.remaining() > 0) {
    ASSERT_TRUE(decode_log_record(r, rec));
    if (rec.kind != LogRecord::Kind::kOp) continue;
    ++ops;
    EXPECT_EQ(rec.op.spec, SpecId::kRegister);
    EXPECT_TRUE(rec.op.visible.empty());
  }
  EXPECT_EQ(ops, 2u);
}

TEST(TraceIo, PartialTypedFieldsRejected) {
  // A typed-op record carries its typed fields whole, with a known spec
  // other than the register and an opcode of the op's own kind.
  const auto typed = [](bool is_write, int spec, int opcode, bool whole) {
    return with_records(header(1, 1), [=](ByteWriter& w) {
      put_op(w, OpRecord{.is_write = is_write, .wseq = is_write ? 1u : 0u},
             /*typed=*/true);
      w.u8(static_cast<std::uint8_t>(spec));
      w.u8(static_cast<std::uint8_t>(opcode));
      if (!whole) return;
      w.i64(0);
      w.u64_vec(std::vector<std::uint64_t>{});
    });
  };
  EXPECT_TRUE(import_run_archive(typed(true, 1, 2, true)).has_value());
  EXPECT_FALSE(import_run_archive(typed(true, 1, 2, false)).has_value());
  EXPECT_FALSE(import_run_archive(typed(true, 0, 0, true)).has_value());
  EXPECT_FALSE(import_run_archive(typed(true, 9, 2, true)).has_value());
  EXPECT_FALSE(import_run_archive(typed(true, 1, 42, true)).has_value());
  EXPECT_FALSE(import_run_archive(typed(true, 1, 4, true)).has_value());
  EXPECT_FALSE(import_run_archive(typed(false, 1, 2, true)).has_value());
}

TEST(TraceIo, WriteIdMismatchDetected) {
  // A write op record claiming the wrong sequence number must be rejected.
  const auto write = [](std::uint64_t wseq) {
    return with_records(header(1, 1), [=](ByteWriter& w) {
      put_op(w, OpRecord{.wseq = wseq}, /*typed=*/false);
    });
  };
  EXPECT_TRUE(import_run_archive(write(1)).has_value());
  EXPECT_FALSE(import_run_archive(write(5)).has_value());
  EXPECT_FALSE(import_run_archive(with_records(header(2, 1), [](ByteWriter& w) {
                 put_op(w, OpRecord{.wproc = 1}, /*typed=*/false);
               })).has_value());
}

TEST(TraceIo, RecordsThatDoNotFitTheRunAreRejected) {
  // Each edit of an Ĥ₁ archive that the table of `optcm replay` once
  // audited as a valid run: the one decoder rejects it now.
  const auto result = h1_run();
  ASSERT_TRUE(result.settled);
  const RunRecorder& rec = *result.recorder;
  ASSERT_TRUE(import_run_archive(archive_with(rec, [](auto&) {})).has_value());

  const auto first = [](std::vector<RunEvent>& events, EvKind kind,
                         ProcessId at) -> RunEvent& {
    for (RunEvent& e : events) {
      if (e.kind == kind && e.at == at) return e;
    }
    ADD_FAILURE() << "no " << to_string(kind) << " at p" << at + 1;
    return events.front();
  };
  const std::function<void(std::vector<RunEvent>&)> edits[] = {
      [](auto& events) { events.front().at = 7; },
      [&](auto& events) { first(events, EvKind::kSend, 0).write.proc = 9; },
      [&](auto& events) { first(events, EvKind::kApply, 1).at = 7; },
      [&](auto& events) {
        first(events, EvKind::kReceipt, 1).clock =
            VectorClock(std::vector<std::uint64_t>{1});
      },
      [&](auto& events) { first(events, EvKind::kReturn, 1).var = 2; },
      [](auto& events) { events.front().other.proc = 3; },
  };
  for (std::size_t i = 0; i < std::size(edits); ++i) {
    EXPECT_FALSE(import_run_archive(archive_with(rec, edits[i])).has_value())
        << "edit " << i;
  }
}

TEST(TraceIo, EveryProtocolRecordsClocksOfLengthZeroOrProcs) {
  // The decoder's clock rule holds for what every protocol records: OptP's
  // Write_co, ANBKH's FM clock, the token protocol's empty clock and the
  // sharded protocol's summary row all archive and import whole.
  WorkloadSpec spec;
  spec.n_procs = 4;
  spec.n_vars = 4;
  spec.ops_per_proc = 20;
  spec.seed = 5;
  const UniformLatency latency(sim_us(50), sim_us(500), 5);
  std::vector<ProtocolKind> kinds = all_protocol_kinds();
  kinds.push_back(ProtocolKind::kOptPSharded);
  for (const ProtocolKind kind : kinds) {
    SCOPED_TRACE(to_string(kind));
    SimRunConfig cfg;
    cfg.kind = kind;
    cfg.n_procs = spec.n_procs;
    cfg.n_vars = spec.n_vars;
    cfg.latency = &latency;
    cfg.protocol_config.token_max_rounds = 100'000;
    std::vector<Script> scripts = generate_workload(spec);
    if (kind == ProtocolKind::kOptPSharded) {
      auto map = std::make_shared<const SubscriptionMap>(
          SubscriptionMap::chained(spec.n_procs, spec.n_vars, 2));
      scripts = generate_subscriber_workload(spec, *map);
      cfg.protocol_config.subscription = std::move(map);
    }
    const auto result = run_sim(cfg, scripts);
    ASSERT_TRUE(result.settled);
    const auto imported =
        import_run_archive(export_run_archive(*result.recorder));
    ASSERT_TRUE(imported.has_value());
    EXPECT_EQ(imported->events.size(), result.recorder->events().size());
  }
}

/// What `optcm replay` does with a decoded run: refuse it without ↦co,
/// else audit and check it.  Neither may abort.
void replay(const ImportedRun& run) {
  if (!CoRelation::build(run.history)) return;
  (void)OptimalityAuditor::audit(run.history, run.events);
  (void)ConsistencyChecker::check(run.history);
}

/// Every prefix and every single-byte corruption of `archive` is either
/// rejected or decodes to a run that fits its shape and replays; none
/// aborts.
void expect_cuts_and_flips_are_safe(const Bytes& archive) {
  ASSERT_TRUE(import_run_archive(archive).has_value());
  std::size_t accepted = 0;
  for (std::size_t len = 0; len < archive.size(); ++len) {
    const auto run =
        import_run_archive(std::span<const std::uint8_t>(archive).first(len));
    if (!run) continue;
    ++accepted;
    EXPECT_TRUE(fits_its_shape(*run)) << "cut at " << len;
    replay(*run);
  }
  // Only cuts at record boundaries decode: a record is several bytes long.
  EXPECT_LT(accepted, archive.size() / 4);
  Bytes copy = archive;
  for (std::size_t i = 0; i < archive.size(); ++i) {
    for (const int mask : {0x01, 0x40, 0x80, 0xFF}) {
      copy[i] = static_cast<std::uint8_t>(archive[i] ^ mask);
      const auto run = import_run_archive(copy);
      if (!run) continue;
      EXPECT_TRUE(fits_its_shape(*run)) << "byte " << i << " ^ " << mask;
      replay(*run);
    }
    copy[i] = archive[i];
  }
}

TEST(TraceIo, EveryCutAndByteFlipIsRejectedOrFitsTheRun) {
  const auto h1 = h1_run();
  ASSERT_TRUE(h1.settled);
  expect_cuts_and_flips_are_safe(export_run_archive(*h1.recorder));
  const auto typed = typed_run();
  ASSERT_TRUE(typed.settled);
  expect_cuts_and_flips_are_safe(export_run_archive(*typed.recorder));
}

}  // namespace
}  // namespace dsm
