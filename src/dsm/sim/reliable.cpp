#include "dsm/sim/reliable.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "dsm/common/contracts.h"
#include "dsm/common/rng.h"

namespace dsm {

ReliableNode::ReliableNode(EventQueue& queue, DatagramTransport& transport,
                           ProcessId self, MessageSink& upper, Config config)
    : queue_(&queue),
      network_(&transport),
      self_(self),
      upper_(&upper),
      config_(config),
      tx_(transport.n_procs()),
      rx_(transport.n_procs()) {
  DSM_REQUIRE(config_.min_rto > 0);
  DSM_REQUIRE(config_.min_rto <= config_.max_rto);
  DSM_REQUIRE(config_.rto > 0);
  DSM_REQUIRE(config_.ack_delay < config_.min_rto &&
              "a held ACK alone must never provoke a retransmission");
  for (PeerTx& peer : tx_) peer.rto = config_.rto;
}

ReliableNode::~ReliableNode() { *alive_ = false; }

namespace {

/// Calls `fn` with each payload of a DATA (`batch` false) or BATCH frame,
/// in order, given `body`: the bytes after the frame's seq.  False when a
/// batch is malformed — no payload, a truncated length prefix, or a payload
/// running past the end of the frame.
template <typename Fn>
bool for_each_payload(bool batch, ByteReader body, Fn&& fn) {
  if (!batch) {
    fn(body.rest());
    return true;
  }
  if (body.remaining() == 0) return false;
  while (body.remaining() > 0) {
    const auto len = body.u64();
    if (!len) return false;
    const auto payload = body.take(static_cast<std::size_t>(*len));
    if (!payload) return false;
    fn(*payload);
  }
  return true;
}

}  // namespace

ReliableNode::TxEntry& ReliableNode::seal(PeerTx& peer, SimTime now,
                                          bool retransmitted) {
  TxEntry& entry = peer.window.emplace_back(
      TxEntry{peer.open_seq, nullptr, now,
              static_cast<std::uint32_t>(peer.open.size()), retransmitted});
  if (entry.payloads == 1) {
    entry.body = std::move(peer.open.front());
  } else {
    std::vector<std::uint8_t> body;
    body.reserve(peer.open_bytes);
    ByteWriter w(std::move(body));
    for (const Payload& payload : peer.open) {
      w.u64(payload->size());
      w.bytes(*payload);
    }
    entry.body = make_payload(std::move(w).take());
  }
  peer.open.clear();
  peer.open_bytes = 0;
  return entry;
}

void ReliableNode::send_open(ProcessId to) {
  PeerTx& peer = tx_[to];
  --open_batches_;
  const TxEntry& entry = seal(peer, queue_->now(), false);
  transmit(to, entry);
  arm_timer(to, entry.seq, 0, peer.rto);
}

void ReliableNode::send(ProcessId to, Payload payload) {
  DSM_REQUIRE(to < tx_.size());
  DSM_REQUIRE(to != self_);
  DSM_REQUIRE(payload != nullptr);
  PeerTx& peer = tx_[to];
  const std::size_t bytes = varint_size(payload->size()) + payload->size();
  if (!peer.open.empty() && peer.open_bytes + bytes > kMaxBatchBytes) {
    send_open(to);
  }
  if (peer.open.empty()) {
    peer.open_seq = peer.next_seq++;
    ++open_batches_;
  }
  peer.open.push_back(std::move(payload));
  peer.open_bytes += bytes;
  ++stats_.data_sent;
  if (!tick_driven_) send_open(to);
}

void ReliableNode::broadcast(const Payload& payload) {
  for (ProcessId to = 0; to < tx_.size(); ++to) {
    if (to != self_) send(to, payload);
  }
}

void ReliableNode::flush() {
  tick_driven_ = true;
  if (open_batches_ == 0) return;  // most loop passes: nothing was sent
  for (ProcessId to = 0; to < tx_.size(); ++to) {
    if (!tx_[to].open.empty()) send_open(to);
  }
}

std::size_t ReliableNode::frame_size(const TxEntry& entry) {
  return 1 + varint_size(entry.seq) + entry.body->size();
}

void ReliableNode::write_frame(ByteWriter& w, const TxEntry& entry) {
  w.u8(static_cast<std::uint8_t>(entry.payloads > 1 ? FrameType::kBatch
                                                   : FrameType::kData));
  w.u64(entry.seq);
  w.bytes(*entry.body);
}

void ReliableNode::transmit(ProcessId to, const TxEntry& entry) {
  // The frame is encoded per peer by necessity (sequence numbers are
  // per-channel), and copies the entry's body: a broadcast makes n−1 copies
  // of the payload, and every retransmission one more, byte for byte the
  // same.  Held ACKs to `to` go first, so the transport batches them with
  // this frame into one write and the peer reads both at once.
  flush_acks(to);
  std::vector<std::uint8_t> frame;
  frame.reserve(frame_size(entry));
  ByteWriter w(std::move(frame));
  write_frame(w, entry);
  network_->send(self_, to, make_payload(std::move(w).take()));
}

SimTime ReliableNode::jitter(ProcessId to, std::uint64_t seq,
                             std::size_t attempt, SimTime interval) const {
  const SimTime bound = interval / 4;
  if (bound == 0) return 0;
  // Same sponge chain as FaultPlan::draw: fold each coordinate through the
  // splitmix64 finalizer so every (node, peer, seq, attempt) gets an
  // independent, reproducible draw.
  std::uint64_t s = config_.jitter_seed;
  s = splitmix64(s) ^ ((std::uint64_t{self_} << 32) | std::uint64_t{to});
  s = splitmix64(s) ^ seq;
  s = splitmix64(s) ^ static_cast<std::uint64_t>(attempt);
  return splitmix64(s) % (bound + 1);
}

void ReliableNode::arm_timer(ProcessId to, std::uint64_t seq,
                             std::size_t attempt, SimTime interval) {
  const SimTime wait = interval + jitter(to, seq, attempt, interval);
  queue_->schedule_after(
      wait, [this, alive = alive_, to, seq, attempt, interval] {
        if (!*alive) return;  // node crashed/destroyed; timer is stale
        TxEntry* entry = unacked(tx_[to], seq);
        if (entry == nullptr) return;  // acked meanwhile
        if (attempt >= config_.max_retries) {
          ++stats_.abandoned;
          retire(tx_[to], *entry);
          if (config_.on_abandon) {
            config_.on_abandon(to, seq);
            return;
          }
          DSM_REQUIRE(false &&
                      "ARQ abandoned a payload: max_retries exhausted — the "
                      "channel can no longer claim exactly-once delivery");
        }
        ++stats_.retransmissions;
        entry->retransmitted = true;  // Karn: disqualify from RTT sampling
        transmit(to, *entry);
        // Exponential backoff capped at max_rto.
        const SimTime next = std::min(interval * 2, config_.max_rto);
        arm_timer(to, seq, attempt + 1, next);
      });
}

void ReliableNode::resume(ProcessId to, std::size_t attempt,
                          SimTime interval) {
  network_->send(
      self_, to,
      make_payload({static_cast<std::uint8_t>(FrameType::kResume)}));
  // Seq 0 is never a DATA seq, so the jitter draws stay apart from the RTO
  // timers'.
  const SimTime wait = interval + jitter(to, 0, attempt, interval);
  queue_->schedule_after(wait, [this, alive = alive_, to, attempt, interval] {
    if (!*alive || !tx_[to].resuming) return;  // gone, or answered
    if (attempt + 1 >= config_.max_retries) {
      // Unanswered: the peer's own RTO timers still repair the channel.
      tx_[to].resuming = false;
      return;
    }
    resume(to, attempt + 1, std::min(interval * 2, config_.max_rto));
  });
}

void ReliableNode::on_resume(ProcessId from) {
  // `from` restarted from a checkpoint: what it lost is in this window.
  // Resend all of it now, so recovery never waits for a timer that backed
  // off while `from` was down.  Each entry's own timer keeps running: `from`
  // repeats its RESUME until an answer arrives, so a lost RESEND is asked
  // for again.  An empty window still answers, with an empty RESEND.
  flush_acks(from);
  PeerTx& peer = tx_[from];
  auto it = peer.window.begin();
  do {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(FrameType::kResend));
    for (; it != peer.window.end(); ++it) {
      TxEntry& entry = *it;
      if (entry.body == nullptr) continue;
      const std::size_t size = frame_size(entry);
      if (w.size() > 1 && w.size() + size > kMaxBatchBytes) break;
      w.u64(size);
      write_frame(w, entry);
      entry.retransmitted = true;  // Karn: disqualify from RTT sampling
      ++stats_.retransmissions;
    }
    network_->send(self_, from, make_payload(std::move(w).take()));
  } while (it != peer.window.end());
}

SimTime ReliableNode::clamp_rto(double rto_us) const {
  const double lo = static_cast<double>(config_.min_rto);
  const double hi = static_cast<double>(config_.max_rto);
  return static_cast<SimTime>(std::llround(std::clamp(rto_us, lo, hi)));
}

void ReliableNode::sample_rtt(PeerTx& peer, SimTime rtt) {
  const double r = static_cast<double>(rtt);
  if (!peer.have_rtt) {
    peer.srtt = r;
    peer.rttvar = r / 2.0;
    peer.have_rtt = true;
  } else {
    peer.rttvar = 0.75 * peer.rttvar + 0.25 * std::abs(peer.srtt - r);
    peer.srtt = 0.875 * peer.srtt + 0.125 * r;
  }
  peer.rto = clamp_rto(peer.srtt + 4.0 * peer.rttvar);
  ++stats_.rtt_samples;
}

ReliableNode::TxEntry* ReliableNode::unacked(PeerTx& peer, std::uint64_t seq) {
  const auto it = std::lower_bound(
      peer.window.begin(), peer.window.end(), seq,
      [](const TxEntry& e, std::uint64_t s) { return e.seq < s; });
  if (it == peer.window.end() || it->seq != seq || it->body == nullptr) {
    return nullptr;
  }
  return &*it;
}

void ReliableNode::retire(PeerTx& peer, TxEntry& entry) {
  entry.body.reset();
  while (!peer.window.empty() && peer.window.front().body == nullptr) {
    peer.window.pop_front();
  }
}

void ReliableNode::on_ack(ProcessId from, std::uint64_t seq) {
  PeerTx& peer = tx_[from];
  TxEntry* entry = unacked(peer, seq);
  if (entry == nullptr) return;  // duplicate ACK
  if (!entry->retransmitted) {
    sample_rtt(peer, queue_->now() - entry->first_sent);
  }
  retire(peer, *entry);
}

void ReliableNode::hold_acks(bool hold) {
  if (acks_held_ == hold) return;
  acks_held_ = hold;
  if (hold) return;
  for (ProcessId to = 0; to < rx_.size(); ++to) flush_acks(to);
}

void ReliableNode::flush_acks(ProcessId to) {
  PeerRx& peer = rx_[to];
  if (acks_held_ || peer.pending_acks.empty()) return;
  queue_->cancel(peer.ack_timer);  // a no-op unless the timer is pending
  std::size_t size = 1;
  for (const std::uint64_t seq : peer.pending_acks) size += varint_size(seq);
  std::vector<std::uint8_t> frame;
  frame.reserve(size);
  ByteWriter w(std::move(frame));
  w.u8(static_cast<std::uint8_t>(FrameType::kAck));
  for (const std::uint64_t seq : peer.pending_acks) w.u64(seq);
  peer.pending_acks.clear();
  ++stats_.acks_sent;
  network_->send(self_, to, make_payload(std::move(w).take()));
}

void ReliableNode::on_data(ProcessId from, std::uint64_t seq, FrameType type,
                           ByteReader body) {
  // Always (re-)ACK: the original ACK may have been lost.
  PeerRx& peer = rx_[from];
  peer.pending_acks.push_back(seq);
  if (config_.ack_delay == 0) {
    flush_acks(from);
  } else if (peer.pending_acks.size() == 1) {
    peer.ack_timer = queue_->schedule_after(
        config_.ack_delay, [this, alive = alive_, from] {
          if (*alive) flush_acks(from);
        });
  }

  if (peer.saw(seq)) {
    ++stats_.duplicates_suppressed;
    return;
  }
  peer.mark(seq);
  (void)for_each_payload(type == FrameType::kBatch, body,
                         [&](std::span<const std::uint8_t> payload) {
                           ++stats_.delivered;
                           upper_->deliver(from, payload);
                         });
}

std::optional<std::uint64_t> ReliableNode::data_seq(FrameType type,
                                                     ByteReader& r) {
  const auto seq = r.u64();
  if (!seq) return std::nullopt;
  // Validate the whole batch before acknowledging or delivering any of it.
  const auto skip = [](std::span<const std::uint8_t>) {};
  if (type == FrameType::kBatch && !for_each_payload(true, r, skip)) {
    return std::nullopt;
  }
  return seq;
}

bool ReliableNode::valid_resend(ByteReader r) {
  while (r.remaining() > 0) {
    const auto len = r.u64();
    if (!len) return false;
    const auto frame = r.take(static_cast<std::size_t>(*len));
    if (!frame) return false;
    ByteReader inner(*frame);
    const auto type = inner.u8();
    if (type != static_cast<std::uint8_t>(FrameType::kData) &&
        type != static_cast<std::uint8_t>(FrameType::kBatch)) {
      return false;
    }
    if (!data_seq(static_cast<FrameType>(*type), inner)) return false;
  }
  return true;
}

void ReliableNode::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  const auto type = r.u8();
  if (type == static_cast<std::uint8_t>(FrameType::kData) ||
      type == static_cast<std::uint8_t>(FrameType::kBatch)) {
    const auto frame_type = static_cast<FrameType>(*type);
    if (const auto seq = data_seq(frame_type, r)) {
      on_data(from, *seq, frame_type, r);
      return;
    }
  } else if (type == static_cast<std::uint8_t>(FrameType::kAck) &&
             r.remaining() > 0) {
    // Validate the whole list before retiring anything from it.
    ByteReader check = r;
    while (check.remaining() > 0 && check.u64()) {
    }
    if (check.exhausted()) {
      while (r.remaining() > 0) on_ack(from, *r.u64());
      return;
    }
  } else if (type == static_cast<std::uint8_t>(FrameType::kResume) &&
             r.exhausted()) {
    on_resume(from);
    return;
  } else if (type == static_cast<std::uint8_t>(FrameType::kResend) &&
             valid_resend(r)) {
    tx_[from].resuming = false;  // answered
    while (r.remaining() > 0) {
      deliver(from, *r.take(static_cast<std::size_t>(*r.u64())));
    }
    return;
  }
  // A frame this class did not produce.  The simulator's network cannot
  // corrupt bytes, but a real socket peer can say anything; dropping (and
  // counting) is the only safe response — aborting would hand a remote byte
  // stream a kill switch.
  ++stats_.malformed_dropped;
}

SimTime ReliableNode::current_rto(ProcessId to) const {
  DSM_REQUIRE(to < tx_.size());
  return tx_[to].rto;
}

bool ReliableNode::quiescent() const noexcept {
  return std::all_of(tx_.begin(), tx_.end(),
                     [](const PeerTx& peer) { return peer.drained(); });
}

bool ReliableNode::quiescent_except(
    const std::vector<bool>& excluded) const noexcept {
  for (std::size_t p = 0; p < tx_.size(); ++p) {
    if (p < excluded.size() && excluded[p]) continue;
    if (!tx_[p].drained()) return false;
  }
  return true;
}

void ReliableNode::skip_tx_sequences(std::uint64_t skip) noexcept {
  for (PeerTx& peer : tx_) peer.next_seq += skip;
}

void ReliableNode::snapshot(ByteWriter& w) const {
  // One (seq, payload) pair per payload, in ascending seq order: the live
  // entries' payloads, then the open batch's.
  const auto put = [&w](std::uint64_t seq,
                        std::span<const std::uint8_t> payload) {
    w.u64(seq);
    w.u64(payload.size());
    w.bytes(payload);
  };
  w.u64(tx_.size());
  for (const PeerTx& peer : tx_) {
    w.u64(peer.next_seq);
    std::uint64_t count = peer.open.size();
    for (const TxEntry& entry : peer.window) {
      if (entry.body != nullptr) count += entry.payloads;
    }
    w.u64(count);
    for (const TxEntry& entry : peer.window) {
      if (entry.body == nullptr) continue;
      (void)for_each_payload(entry.payloads > 1, ByteReader(*entry.body),
                             [&](std::span<const std::uint8_t> payload) {
                               put(entry.seq, payload);
                             });
    }
    for (const Payload& payload : peer.open) put(peer.open_seq, *payload);
    w.u8(peer.have_rtt ? 1 : 0);
    w.u64(std::bit_cast<std::uint64_t>(peer.srtt));
    w.u64(std::bit_cast<std::uint64_t>(peer.rttvar));
    w.u64(peer.rto);
  }
  for (const PeerRx& peer : rx_) {
    w.u64(peer.watermark);
    std::vector<std::uint64_t> above(peer.seen_above.begin(),
                                     peer.seen_above.end());
    w.u64_vec(above);
  }
}

bool ReliableNode::restore(ByteReader& r) {
  const auto n = r.u64();
  if (!n || *n != tx_.size()) return false;
  open_batches_ = 0;  // every open batch is replaced below
  for (PeerTx& peer : tx_) {
    const auto next_seq = r.u64();
    const auto count = r.u64();
    if (!next_seq || !count) return false;
    peer.next_seq = *next_seq;
    peer.window.clear();
    peer.open.clear();
    peer.open_bytes = 0;
    // Consecutive pairs under one seq are one batch, and seqs never fall
    // (snapshot() writes each window in ascending seq order).  Restored
    // entries count as retransmitted: their original send time is gone, so
    // Karn's rule disqualifies them from RTT sampling.
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto seq = r.u64();
      const auto len = r.u64();
      if (!seq || !len) return false;
      const auto raw = r.take(static_cast<std::size_t>(*len));
      if (!raw) return false;
      if (!peer.open.empty() && *seq != peer.open_seq) {
        seal(peer, queue_->now(), true);
      }
      if (peer.open.empty()) {
        if (!peer.window.empty() && *seq <= peer.window.back().seq) {
          return false;
        }
        peer.open_seq = *seq;
      }
      peer.open.push_back(make_payload({raw->begin(), raw->end()}));
      peer.open_bytes += varint_size(raw->size()) + raw->size();
    }
    if (!peer.open.empty()) seal(peer, queue_->now(), true);
    const auto have = r.u8();
    const auto srtt = r.u64();
    const auto rttvar = r.u64();
    const auto rto = r.u64();
    if (!have || !srtt || !rttvar || !rto) return false;
    peer.have_rtt = *have != 0;
    peer.srtt = std::bit_cast<double>(*srtt);
    peer.rttvar = std::bit_cast<double>(*rttvar);
    peer.rto = *rto;
  }
  for (PeerRx& peer : rx_) {
    const auto watermark = r.u64();
    auto above = r.u64_vec();
    if (!watermark || !above) return false;
    peer.watermark = *watermark;
    peer.seen_above = std::set<std::uint64_t>(above->begin(), above->end());
  }
  // Everything unacked at checkpoint time is immediately retransmitted: the
  // peers may never have seen it, and the pre-crash timers died with the old
  // node instance.
  for (ProcessId to = 0; to < tx_.size(); ++to) {
    for (const TxEntry& entry : tx_[to].window) {
      ++stats_.retransmissions;
      transmit(to, entry);
      arm_timer(to, entry.seq, 0, tx_[to].rto);
    }
  }
  // And what the peers sent that this node never checkpointed is still in
  // their windows: ask each for it.
  for (ProcessId to = 0; to < tx_.size(); ++to) {
    if (to == self_) continue;
    tx_[to].resuming = true;
    resume(to, 0, tx_[to].rto);
  }
  return true;
}

}  // namespace dsm
