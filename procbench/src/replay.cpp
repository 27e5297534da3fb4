#include "replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <variant>

#include "dsm/codec/message.h"
#include "dsm/net/frame.h"
#include "dsm/protocols/registry.h"
#include "dsm/storage/snapshot_file.h"
#include "dsm/storage/state_dir.h"
#include "dsm/storage/wal.h"
#include "dsm/telemetry/telemetry.h"
#include "spans.h"
#include "workloads.h"

namespace procbench {

namespace {

using Clock = std::chrono::steady_clock;
using dsm::ProcessId;
using dsm::WriteId;

/// Passes over a batch kept for the codec and frame timings; the fastest
/// pass counts (the batch is small enough to stay cache-resident).
constexpr int kPasses = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class CaptureEndpoint final : public dsm::Endpoint {
 public:
  void broadcast(dsm::Payload payload) override { last = std::move(payload); }
  void send(ProcessId, dsm::Payload payload) override {
    last = std::move(payload);
  }
  dsm::Payload last;
};

/// Downstream of a node's telemetry tee: the applies the replay produced.
class ApplyCount final : public dsm::ProtocolObserver {
 public:
  void on_apply(ProcessId, WriteId, bool delayed) override {
    ++applies;
    if (delayed) ++delayed_applies;
  }
  std::uint64_t applies = 0;
  std::uint64_t delayed_applies = 0;
};

/// A node's telemetry tee, one telemetry span per observer call.
class SpannedObserver final : public dsm::ProtocolObserver {
 public:
  SpannedObserver(Tracer& tracer, dsm::ProtocolObserver& inner)
      : tracer_(tracer), inner_(inner) {}

  void on_send(ProcessId at, const dsm::WriteUpdate& m) override {
    auto s = tracer_.span(Layer::kObserve, at, WriteId{m.sender, m.write_seq});
    inner_.on_send(at, m);
  }
  void on_receipt(ProcessId at, const dsm::WriteUpdate& m) override {
    auto s = tracer_.span(Layer::kObserve, at, WriteId{m.sender, m.write_seq});
    inner_.on_receipt(at, m);
  }
  void on_apply(ProcessId at, WriteId w, bool delayed) override {
    auto s = tracer_.span(Layer::kObserve, at, w);
    inner_.on_apply(at, w, delayed);
  }
  void on_return(ProcessId at, dsm::VarId x, dsm::Value v,
                 WriteId from) override {
    auto s = tracer_.span(Layer::kObserve, at, from);
    inner_.on_return(at, x, v, from);
  }
  void on_skip(ProcessId at, WriteId w, WriteId by) override {
    auto s = tracer_.span(Layer::kObserve, at, w);
    inner_.on_skip(at, w, by);
  }

 private:
  Tracer& tracer_;
  dsm::ProtocolObserver& inner_;
};

/// One node's replay stack, wired like ProtocolHost wires a node's.
struct Node {
  explicit Node(ProcessId p, Tracer& tracer) : telemetry(kProcs) {
    telemetry.set_clock([this] { return ++ticks; });
    observer = std::make_unique<SpannedObserver>(
        tracer, telemetry.observe_through(count));
    proto = dsm::make_protocol(dsm::ProtocolKind::kOptP, p, kProcs, kVars,
                               endpoint, *observer);
    proto->set_instrumentation(&telemetry.instrumentation(p));
    proto->start();
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint64_t ticks = 0;
  CaptureEndpoint endpoint;
  ApplyCount count;
  dsm::RunTelemetry telemetry;
  std::unique_ptr<SpannedObserver> observer;
  std::unique_ptr<dsm::CausalProtocol> proto;
};

struct Pass {
  std::string error;
  double wall_s = 0;
  std::vector<dsm::Payload> sent;  ///< in send order
  std::unordered_map<WriteId, dsm::Payload> payloads;
  std::vector<std::unique_ptr<Node>> nodes;
};

Pass replay_pass(const dsm::MergedRun& merged, Tracer& tracer) {
  Pass pass;
  for (ProcessId p = 0; p < kProcs; ++p) {
    pass.nodes.push_back(std::make_unique<Node>(p, tracer));
  }
  auto& payloads = pass.payloads;
  payloads.reserve(merged.history.writes().size());
  const auto t0 = Clock::now();
  for (const dsm::RunEvent& e : merged.events) {
    if (e.at >= kProcs) {
      pass.error = "event at an unknown node";
      return pass;
    }
    Node& node = *pass.nodes[e.at];
    switch (e.kind) {
      case dsm::EvKind::kSend: {
        const auto ref = merged.history.find_write(e.write);
        if (!ref) {
          pass.error = "send of an unrecorded write";
          return pass;
        }
        const dsm::Operation& op = merged.history.op(*ref);
        {
          auto s = tracer.span(Layer::kWrite, e.at, e.write);
          node.proto->write(op.var, op.value);
        }
        payloads.emplace(e.write, node.endpoint.last);
        pass.sent.push_back(node.endpoint.last);
        break;
      }
      case dsm::EvKind::kReceipt: {
        const auto it = payloads.find(e.write);
        if (it == payloads.end()) {
          pass.error = "receipt before its send";
          return pass;
        }
        auto s = tracer.span(Layer::kOnMessage, e.at, e.write);
        node.proto->on_message(e.write.proc, *it->second);
        break;
      }
      case dsm::EvKind::kReturn: {
        dsm::ReadResult r;
        {
          auto s = tracer.span(Layer::kRead, e.at, e.write);
          r = node.proto->read(e.var);
        }
        if (r.value != e.value) {
          pass.error = "a replayed read returned another value";
          return pass;
        }
        break;
      }
      case dsm::EvKind::kApply:
      case dsm::EvKind::kSkip:
        break;  // produced by the replay itself; compared below
    }
  }
  pass.wall_s = seconds_since(t0);

  std::vector<std::uint64_t> applies(kProcs, 0);
  std::vector<std::uint64_t> delayed(kProcs, 0);
  for (const dsm::RunEvent& e : merged.events) {
    if (e.kind != dsm::EvKind::kApply) continue;
    ++applies[e.at];
    if (e.delayed) ++delayed[e.at];
  }
  for (ProcessId p = 0; p < kProcs; ++p) {
    const ApplyCount& c = pass.nodes[p]->count;
    if (c.applies != applies[p] || c.delayed_applies != delayed[p]) {
      pass.error = "replayed applies differ from the recorded run at p" +
                   std::to_string(p);
    }
  }
  return pass;
}

/// Fastest of kPasses runs of `fn`, in seconds.
template <typename Fn>
double fastest(Fn&& fn) {
  double best = 0;
  for (int i = 0; i < kPasses; ++i) {
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    if (i == 0 || s < best) best = s;
  }
  return best;
}

void time_codec(const std::vector<dsm::Payload>& sent, LayerReplay& out) {
  std::vector<dsm::WriteUpdate> updates;
  updates.reserve(sent.size());
  std::uint64_t bytes = 0;
  for (const dsm::Payload& p : sent) {
    auto m = dsm::decode_message(*p);
    if (!m || !std::holds_alternative<dsm::WriteUpdate>(*m)) {
      out.error = "a captured payload does not decode";
      return;
    }
    updates.push_back(std::get<dsm::WriteUpdate>(std::move(*m)));
    bytes += p->size();
  }
  if (updates.empty()) return;
  const auto n = static_cast<double>(updates.size());
  out.update_bytes = static_cast<double>(bytes) / n;

  std::uint64_t sink = 0;
  out.decode_ns = fastest([&] {
                    for (const dsm::Payload& p : sent) {
                      const auto m = dsm::decode_message(*p);
                      sink += m.has_value() ? 1 : 0;
                    }
                  }) * 1e9 / n;
  std::vector<std::uint8_t> scratch;
  out.encode_ns = fastest([&] {
                    for (const dsm::WriteUpdate& u : updates) {
                      dsm::ByteWriter w(std::move(scratch));
                      dsm::encode_message(u, w);
                      sink += w.size();
                      scratch = std::move(w).take();
                    }
                  }) * 1e9 / n;
  if (sink == 0) out.error = "codec timing produced nothing";
}

/// The frames node p read off its sockets: a data frame per receipt and an
/// ack per peer copy of each of its own writes (ReliableNode's frame layout:
/// type byte, varint seq, payload).
std::vector<std::vector<std::uint8_t>> received_frames(
    const dsm::MergedRun& merged, ProcessId p,
    const std::unordered_map<WriteId, dsm::Payload>& payloads) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint64_t> data_seq(kProcs, 0);
  std::uint64_t ack_seq = 0;
  for (const dsm::RunEvent& e : merged.events) {
    if (e.at != p) continue;
    if (e.kind == dsm::EvKind::kReceipt) {
      const auto it = payloads.find(e.write);
      if (it == payloads.end()) continue;
      dsm::ByteWriter body;
      body.u8(0);
      body.u64(++data_seq[e.write.proc]);
      body.bytes(*it->second);
      frames.push_back(dsm::encode_frame(dsm::FrameKind::kData, body.buffer()));
    } else if (e.kind == dsm::EvKind::kSend) {
      ++ack_seq;
      for (std::size_t peer = 1; peer < kProcs; ++peer) {
        dsm::ByteWriter body;
        body.u8(1);
        body.u64(ack_seq);
        frames.push_back(dsm::encode_frame(dsm::FrameKind::kData, body.buffer()));
      }
    }
  }
  return frames;
}

void time_frames(const dsm::MergedRun& merged, const Pass& pass,
                 LayerReplay& out) {
  double total_s = 0;
  std::size_t total_frames = 0;
  for (ProcessId p = 0; p < kProcs; ++p) {
    const auto frames = received_frames(merged, p, pass.payloads);
    std::size_t got = 0;
    total_s += fastest([&] {
      dsm::FrameAssembler assembler;
      for (const auto& f : frames) {
        (void)assembler.feed(f);
        while (auto frame = assembler.next()) got += frame->body.empty() ? 0 : 1;
      }
    });
    if (got != frames.size() * kPasses) {
      out.error = "frame reassembly lost frames";
      return;
    }
    total_frames += frames.size();
  }
  if (total_frames > 0) {
    out.frame_reassembly_ns = total_s * 1e9 / static_cast<double>(total_frames);
  }
}

}  // namespace

LayerReplay replay_layers(const dsm::MergedRun& merged, std::FILE* spans_out) {
  LayerReplay out;
  // Alternate untraced and traced passes; the fastest of each counts.  A
  // pass's nodes refer to its tracer, so the kept tracers outlive `last`.
  std::unique_ptr<Tracer> traced;
  std::unique_ptr<Tracer> last_tracer;
  Pass last;
  for (int round = 0; round < 2; ++round) {
    auto off = std::make_unique<Tracer>(false);
    Pass plain = replay_pass(merged, *off);
    if (!plain.error.empty()) {
      out.error = plain.error;
      return out;
    }
    auto on = std::make_unique<Tracer>(true);
    Pass spanned = replay_pass(merged, *on);
    if (!spanned.error.empty()) {
      out.error = spanned.error;
      return out;
    }
    if (round == 0 || plain.wall_s < out.untraced_s) out.untraced_s = plain.wall_s;
    if (round == 0 || spanned.wall_s < out.traced_s) {
      out.traced_s = spanned.wall_s;
      traced = std::move(on);
    }
    last = std::move(plain);
    last_tracer = std::move(off);
  }

  out.write_ns = traced->self_ns(Layer::kWrite);
  out.read_ns = traced->self_ns(Layer::kRead);
  out.on_message_ns = traced->self_ns(Layer::kOnMessage);
  out.observe_ns = traced->self_ns(Layer::kObserve);
  if (spans_out != nullptr && !traced->write_csv(spans_out)) {
    out.error = "cannot write the span file";
    return out;
  }

  std::uint64_t scans = 0;
  std::uint64_t remote_applies = 0;
  double snapshot_bytes = 0;
  for (const auto& node : last.nodes) {
    const dsm::ProtocolStats& s = node->proto->stats();
    scans += s.drain_scans;
    remote_applies += s.remote_applies;
    dsm::ByteWriter w;
    node->proto->snapshot(w);
    snapshot_bytes += static_cast<double>(w.size());
  }
  out.snapshot_bytes = snapshot_bytes / static_cast<double>(kProcs);
  if (remote_applies > 0) {
    out.drain_scans_per_apply =
        static_cast<double>(scans) / static_cast<double>(remote_applies);
  }

  time_codec(last.sent, out);
  if (!out.error.empty()) return out;
  time_frames(merged, last, out);
  return out;
}

StorageReplay replay_storage(const std::string& state_root) {
  namespace fs = std::filesystem;
  StorageReplay out;
  double append_s = 0;
  std::uint64_t appended = 0;
  double snapshot_s = 0;
  std::uint64_t snapshots = 0;
  constexpr int kSnapshotWrites = 20;
  for (ProcessId p = 0; p < kProcs; ++p) {
    const auto dir = dsm::StateDir::open(dsm::StateDir::node_subdir(state_root, p));
    if (!dir) {
      out.error = "missing node state dir";
      return out;
    }
    std::error_code ec;
    out.wal_bytes += static_cast<double>(fs::file_size(dir->wal_path(), ec));
    std::vector<std::vector<std::uint8_t>> records;
    {
      auto wal = dsm::Wal::open(
          dir->wal_path(), dsm::WalOptions{.fsync = dsm::FsyncPolicy::kNone},
          [&](std::span<const std::uint8_t> r) {
            records.emplace_back(r.begin(), r.end());
          });
      if (!wal || records.empty()) {
        out.error = "node WAL is missing or empty";
        return out;
      }
    }
    const std::string fresh = state_root + "/replay-wal-" + std::to_string(p);
    {
      auto wal = dsm::Wal::open(
          fresh, dsm::WalOptions{.fsync = dsm::FsyncPolicy::kEvery},
          [](std::span<const std::uint8_t>) {});
      if (!wal) {
        out.error = "cannot open a fresh WAL";
        return out;
      }
      const auto t0 = Clock::now();
      for (const auto& r : records) {
        if (wal->append(r) != dsm::WalIoError::kNone) {
          out.error = "WAL append failed";
          return out;
        }
      }
      append_s += seconds_since(t0);
      appended += records.size();
    }

    const auto snap = dsm::SnapshotFile::read(dir->snapshot_path());
    if (!snap) {
      out.error = "node snapshot is missing";
      return out;
    }
    out.snapshot_bytes +=
        static_cast<double>(fs::file_size(dir->snapshot_path(), ec));
    // Layout written by the node's spill: [u64 op count][u64 len][host
    // checkpoint][u64 len][ARQ state].
    dsm::ByteReader r(*snap);
    const auto ops = r.u64();
    const auto host_len = r.u64();
    if (!ops || !host_len) {
      out.error = "node snapshot does not parse";
      return out;
    }
    out.checkpoint_bytes += static_cast<double>(*host_len);
    const std::string copy = state_root + "/replay-snapshot-" + std::to_string(p);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSnapshotWrites; ++i) {
      if (!dsm::SnapshotFile::write(copy, *snap)) {
        out.error = "snapshot write failed";
        return out;
      }
    }
    snapshot_s += seconds_since(t0);
    snapshots += kSnapshotWrites;
  }
  const auto n = static_cast<double>(kProcs);
  out.wal_bytes /= n;
  out.snapshot_bytes /= n;
  out.checkpoint_bytes /= n;
  out.wal_append_us = append_s * 1e6 / static_cast<double>(appended);
  out.snapshot_write_us = snapshot_s * 1e6 / static_cast<double>(snapshots);
  return out;
}

}  // namespace procbench
