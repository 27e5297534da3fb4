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

std::vector<std::uint8_t> ReliableNode::encode_data(
    std::uint64_t seq, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(1 + varint_size(seq) + payload.size());
  ByteWriter w(std::move(frame));
  w.u8(static_cast<std::uint8_t>(FrameType::kData));
  w.u64(seq);
  w.bytes(payload);
  return std::move(w).take();
}

void ReliableNode::send(ProcessId to, Payload payload) {
  DSM_REQUIRE(to < tx_.size());
  DSM_REQUIRE(to != self_);
  DSM_REQUIRE(payload != nullptr);
  PeerTx& peer = tx_[to];
  const std::uint64_t seq = peer.next_seq++;
  const TxEntry& entry = peer.window.emplace_back(
      TxEntry{seq, std::move(payload), queue_->now(), false});
  ++stats_.data_sent;
  transmit(to, seq, *entry.payload);
  arm_timer(to, seq, 0, peer.rto);
}

void ReliableNode::broadcast(const Payload& payload) {
  for (ProcessId to = 0; to < tx_.size(); ++to) {
    if (to != self_) send(to, payload);
  }
}

void ReliableNode::transmit(ProcessId to, std::uint64_t seq,
                            const std::vector<std::uint8_t>& payload) {
  // The DATA frame is encoded per peer by necessity (sequence numbers are
  // per-channel), and encode_data copies the application payload into each
  // fresh frame: a broadcast makes n−1 payload copies, and every
  // retransmission one more.  The shared TxEntry keeps the original until
  // acked.  Held ACKs to `to` go first, so the transport batches them with
  // this frame into one write and the peer reads both at once.
  flush_acks(to);
  network_->send(self_, to, make_payload(encode_data(seq, payload)));
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
        transmit(to, seq, *entry->payload);
        // Exponential backoff capped at max_rto.
        const SimTime next = std::min(interval * 2, config_.max_rto);
        arm_timer(to, seq, attempt + 1, next);
      });
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
  if (it == peer.window.end() || it->seq != seq || it->payload == nullptr) {
    return nullptr;
  }
  return &*it;
}

void ReliableNode::retire(PeerTx& peer, TxEntry& entry) {
  entry.payload.reset();
  while (!peer.window.empty() && peer.window.front().payload == nullptr) {
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

void ReliableNode::flush_acks(ProcessId to) {
  PeerRx& peer = rx_[to];
  if (peer.pending_acks.empty()) return;
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

void ReliableNode::on_data(ProcessId from, std::uint64_t seq,
                           std::span<const std::uint8_t> payload) {
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
  ++stats_.delivered;
  upper_->deliver(from, payload);
}

void ReliableNode::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  const auto type = r.u8();
  if (type == static_cast<std::uint8_t>(FrameType::kData)) {
    if (const auto seq = r.u64()) {
      on_data(from, *seq, r.rest());
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
  for (const auto& peer : tx_) {
    if (!peer.window.empty()) return false;
  }
  return true;
}

bool ReliableNode::quiescent_except(
    const std::vector<bool>& excluded) const noexcept {
  for (std::size_t p = 0; p < tx_.size(); ++p) {
    if (p < excluded.size() && excluded[p]) continue;
    if (!tx_[p].window.empty()) return false;
  }
  return true;
}

void ReliableNode::skip_tx_sequences(std::uint64_t skip) noexcept {
  for (PeerTx& peer : tx_) peer.next_seq += skip;
}

void ReliableNode::snapshot(ByteWriter& w) const {
  w.u64(tx_.size());
  for (const PeerTx& peer : tx_) {
    w.u64(peer.next_seq);
    w.u64(static_cast<std::uint64_t>(
        std::count_if(peer.window.begin(), peer.window.end(),
                      [](const TxEntry& e) { return e.payload != nullptr; })));
    for (const TxEntry& entry : peer.window) {
      if (entry.payload == nullptr) continue;
      w.u64(entry.seq);
      w.u64(entry.payload->size());
      w.bytes(*entry.payload);
    }
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
  for (PeerTx& peer : tx_) {
    const auto next_seq = r.u64();
    const auto count = r.u64();
    if (!next_seq || !count) return false;
    peer.next_seq = *next_seq;
    peer.window.clear();
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto seq = r.u64();
      const auto len = r.u64();
      if (!seq || !len) return false;
      // snapshot() writes each window in ascending seq order.
      if (!peer.window.empty() && *seq <= peer.window.back().seq) return false;
      const auto raw = r.take(static_cast<std::size_t>(*len));
      if (!raw) return false;
      // Restored payloads count as retransmitted: their original send time
      // is gone, so Karn's rule disqualifies them from RTT sampling.
      peer.window.push_back(TxEntry{
          *seq, make_payload({raw->begin(), raw->end()}), queue_->now(), true});
    }
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
      transmit(to, entry.seq, *entry.payload);
      arm_timer(to, entry.seq, 0, tx_[to].rto);
    }
  }
  return true;
}

}  // namespace dsm
