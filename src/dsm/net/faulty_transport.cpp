#include "dsm/net/faulty_transport.h"

#include <algorithm>
#include <bit>

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"

namespace dsm {
namespace {

/// Receiver-side ARQ frame types are 0 (data) and 1 (ack); anything else is
/// rejected by ReliableNode's defensive decode and counted as malformed.
constexpr std::uint8_t kCorruptFrameType = 0xEE;

/// How long a reorder-held frame waits for an overtaking frame before the
/// flush timer releases it anyway (the ARQ's RTO would repair it regardless;
/// this just bounds the latency distortion).
constexpr SimTime kReorderFlushDelay = sim_ms(5);

constexpr std::uint32_t kMaxPlanLinks = 4096;

void encode_link(ByteWriter& w, const LinkFaults& lf) {
  w.u64(std::bit_cast<std::uint64_t>(lf.drop));
  w.u64(std::bit_cast<std::uint64_t>(lf.duplicate));
  w.u64(std::bit_cast<std::uint64_t>(lf.corrupt));
  w.u64(std::bit_cast<std::uint64_t>(lf.reorder));
  w.u64(std::bit_cast<std::uint64_t>(lf.delay));
  w.u64(lf.delay_min);
  w.u64(lf.delay_max);
  w.u64(lf.bytes_per_ms);
  w.u8(lf.blocked ? 1 : 0);
}

bool valid_probability(double p) noexcept { return p >= 0.0 && p <= 1.0; }

bool decode_link(ByteReader& r, LinkFaults& lf) {
  const auto drop = r.u64();
  const auto duplicate = r.u64();
  const auto corrupt = r.u64();
  const auto reorder = r.u64();
  const auto delay = r.u64();
  const auto delay_min = r.u64();
  const auto delay_max = r.u64();
  const auto bytes_per_ms = r.u64();
  const auto blocked = r.u8();
  if (!drop || !duplicate || !corrupt || !reorder || !delay || !delay_min ||
      !delay_max || !bytes_per_ms || !blocked) {
    return false;
  }
  lf.drop = std::bit_cast<double>(*drop);
  lf.duplicate = std::bit_cast<double>(*duplicate);
  lf.corrupt = std::bit_cast<double>(*corrupt);
  lf.reorder = std::bit_cast<double>(*reorder);
  lf.delay = std::bit_cast<double>(*delay);
  lf.delay_min = *delay_min;
  lf.delay_max = *delay_max;
  lf.bytes_per_ms = *bytes_per_ms;
  lf.blocked = *blocked != 0;
  return valid_probability(lf.drop) && valid_probability(lf.duplicate) &&
         valid_probability(lf.corrupt) && valid_probability(lf.reorder) &&
         valid_probability(lf.delay) && lf.delay_min <= lf.delay_max;
}

}  // namespace

LinkFaults& NetFaultPlan::override_link(ProcessId from, ProcessId to) {
  for (auto& [key, lf] : links) {
    if (key.first == from && key.second == to) return lf;
  }
  links.emplace_back(std::make_pair(from, to), all);
  return links.back().second;
}

NetFaultPlan::Draw NetFaultPlan::draw(ProcessId from, ProcessId to,
                                      std::uint64_t frame_index) const {
  const LinkFaults& lf = link(from, to);
  // Same sponge-like splitmix64 chain as FaultPlan::draw (dsm/sim/fault.h):
  // every (seed, directed link, frame index) triple gets its own stream.
  std::uint64_t s = seed;
  s = splitmix64(s) ^ ((std::uint64_t{from} << 32) | std::uint64_t{to});
  s = splitmix64(s) ^ frame_index;
  Rng rng(splitmix64(s));
  Draw d;
  // Every field is drawn unconditionally, in declaration order: enabling one
  // fault never shifts the stream feeding the others.
  d.dropped = rng.chance(lf.drop);
  d.corrupted = rng.chance(lf.corrupt);
  d.reordered = rng.chance(lf.reorder);
  d.delayed = rng.chance(lf.delay);
  d.delay_us = lf.delay_min + rng.below(lf.delay_max - lf.delay_min + 1);
  d.duplicated = rng.chance(lf.duplicate);
  return d;
}

std::vector<std::uint8_t> NetFaultPlan::encode() const {
  ByteWriter w;
  w.u64(seed);
  encode_link(w, all);
  w.u32(static_cast<std::uint32_t>(links.size()));
  for (const auto& [key, lf] : links) {
    w.u32(key.first);
    w.u32(key.second);
    encode_link(w, lf);
  }
  return std::move(w).take();
}

std::optional<NetFaultPlan> NetFaultPlan::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  NetFaultPlan plan;
  const auto seed = r.u64();
  if (!seed) return std::nullopt;
  plan.seed = *seed;
  if (!decode_link(r, plan.all)) return std::nullopt;
  const auto n = r.u32();
  if (!n || *n > kMaxPlanLinks) return std::nullopt;
  plan.links.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    const auto from = r.u32();
    const auto to = r.u32();
    LinkFaults lf;
    if (!from || !to || !decode_link(r, lf)) return std::nullopt;
    plan.links.emplace_back(std::make_pair(*from, *to), lf);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return plan;
}

FaultyTransport::FaultyTransport(NetLoop& loop, DatagramTransport& inner,
                                 ProcessId self)
    : loop_(&loop),
      inner_(&inner),
      self_(self),
      frame_index_(inner.n_procs(), 0),
      held_(inner.n_procs()),
      busy_until_(inner.n_procs(), 0) {}

FaultyTransport::~FaultyTransport() { *alive_ = false; }

void FaultyTransport::attach(ProcessId p, MessageSink& sink) {
  inner_->attach(p, sink);
}

std::size_t FaultyTransport::n_procs() const { return inner_->n_procs(); }

void FaultyTransport::forward(ProcessId to, Payload payload) {
  ++stats_.forwarded;
  inner_->send(self_, to, std::move(payload));
  flush_held(to);
}

void FaultyTransport::flush_held(ProcessId to) {
  if (held_[to] == nullptr) return;
  Payload held = std::move(held_[to]);
  held_[to] = nullptr;
  forward(to, std::move(held));
}

void FaultyTransport::send(ProcessId from, ProcessId to, Payload payload) {
  DSM_REQUIRE(from == self_);
  DSM_REQUIRE(to < frame_index_.size());
  // The index advances for EVERY frame — faulted or clean, plan active or
  // not — so a link's draw stream is indexed by its absolute frame count and
  // replays identically however the plan evolves mid-run.
  const std::uint64_t idx = frame_index_[to]++;
  const LinkFaults& lf = plan_.link(from, to);
  if (!lf.active() || payload == nullptr || payload->empty()) {
    forward(to, std::move(payload));
    return;
  }
  if (lf.blocked) {
    ++stats_.blocked;
    return;
  }
  const NetFaultPlan::Draw d = plan_.draw(from, to, idx);
  if (d.dropped) {
    ++stats_.dropped;
    return;
  }
  if (d.corrupted) {
    // Overwrite the ARQ frame-type byte with a value ReliableNode never
    // produces: the receiver's defensive decode rejects the frame outright
    // (malformed_dropped), modeling checksum-detected corruption.  Copy
    // first — the payload buffer is shared across the broadcast fan-out.
    auto mangled = std::make_shared<std::vector<std::uint8_t>>(*payload);
    (*mangled)[0] = kCorruptFrameType;
    payload = std::move(mangled);
    ++stats_.corrupted;
  }
  if (d.reordered && held_[to] == nullptr) {
    // Hold this frame back one slot: the next frame to the same peer
    // overtakes it (forward() flushes the slot), and a timer bounds the wait
    // when traffic dries up.
    held_[to] = std::move(payload);
    ++stats_.reordered;
    loop_->queue().schedule_after(kReorderFlushDelay,
                                  [this, to, alive = alive_] {
                                    if (!*alive) return;
                                    flush_held(to);
                                  });
    return;
  }

  const SimTime now = loop_->queue().now();
  SimTime at = now;
  if (lf.bytes_per_ms > 0) {
    // Token bucket per directed link: frames serialize through the modeled
    // bandwidth; tx time is size/bandwidth in µs.
    const SimTime tx = (payload->size() * 1000) / lf.bytes_per_ms;
    const SimTime start = std::max(now, busy_until_[to]);
    busy_until_[to] = start + tx;
    at = busy_until_[to];
    if (at > now) {
      ++stats_.throttled;
    }
  }
  if (d.delayed) {
    at += d.delay_us;
    ++stats_.delayed;
  }
  if (d.duplicated) {
    ++stats_.duplicated;
  }
  const int copies = d.duplicated ? 2 : 1;
  if (at <= now) {
    for (int i = 0; i < copies; ++i) forward(to, payload);
    return;
  }
  loop_->queue().schedule_after(
      at - now, [this, to, payload = std::move(payload), copies,
                 alive = alive_] {
        if (!*alive) return;
        for (int i = 0; i < copies; ++i) forward(to, payload);
      });
}

}  // namespace dsm
