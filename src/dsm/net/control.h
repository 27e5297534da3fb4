// optcm — the cluster control protocol (driver ⇄ node RPC).
//
// The ProcessCluster driver steers every node over a dedicated control
// connection (a Hello with the control role on the node's ordinary listen
// port).  Each request/reply is one Control frame whose body is a
// ByteWriter-encoded ControlMessage; the node answers every request with
// exactly one reply, in order, so the driver can run simple blocking
// request/reply rounds.
//
// Ops:
//   kPing        → kPong{ready}: ready once the peer mesh is fully connected
//   kRun         → kAck: install this node's Script (sent inline, so tests
//                  can drive arbitrary workloads) with a time-scale
//                  multiplier and start it once the mesh is ready
//   kQueryDone   → kDoneReply{done}: script finished AND protocol quiescent
//                  AND ARQ fully acknowledged AND transport flushed
//   kFetchLog{cursor} → kLogReply{cursor, flag, bytes}: the node's recorded
//                  run log (history ops of this process plus every observer
//                  event that occurred here) as the encoded records of
//                  run_recorder.h — the chunk holding byte offset `cursor`,
//                  from there to the chunk's end.  The reply's cursor is
//                  the offset after it, `flag` is set while more follow;
//                  start at 0 and repeat until `flag` is clear.  A cursor
//                  past the end of the log → kError.
//   kFetchStats  → kStatsReply{stats}: every counter of every node-tier
//                  layer (NodeNetStats), walked from the field tables
//   kKillConn    → kAck: drop the live TCP connection to `peer` (fault hook)
//   kKillHost    → kAck: crash the protocol stack (recoverable mode)
//   kRestartHost → kAck: restore from checkpoint + catch-up
//   kShutdown    → kAck, then the node's loop exits
//   kQueryQuiescent → kDoneReply{quiescent}: protocol quiescent AND ARQ fully
//                  acknowledged AND transport flushed, IGNORING the script
//                  (used as an all-nodes barrier before resuming a respawned
//                  node's script while other scripts are still mid-run)
//   kSetFaults   → kAck: install/replace this node's NetFaultPlan (nemesis
//                  partition start/heal, fault mix changes) at runtime
//
// Decoding is defensive like every codec in the tree: malformed bytes yield
// std::nullopt (the node replies kError / the driver fails the call), never
// UB or an abort — a control port is an open network surface.

#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "dsm/common/stat_fields.h"
#include "dsm/net/faulty_transport.h"
#include "dsm/net/ring_mesh.h"
#include "dsm/net/tcp_transport.h"
#include "dsm/sim/reliable.h"
#include "dsm/storage/wal.h"
#include "dsm/workload/script.h"

namespace dsm {

enum class ControlOp : std::uint8_t {
  kPing = 1,
  kRun = 2,
  kQueryDone = 3,
  kFetchLog = 4,
  kFetchStats = 5,
  kKillConn = 6,
  kKillHost = 7,
  kRestartHost = 8,
  kShutdown = 9,
  kQueryQuiescent = 10,
  kSetFaults = 11,
  // Replies.
  kAck = 100,
  kPong = 101,
  kDoneReply = 102,
  kLogReply = 103,
  kStatsReply = 104,
  kError = 105,
};

/// What a node counts itself, outside any layer's stats struct.
struct NodeStats {
  std::uint64_t dropped_while_down = 0;  ///< ProtocolHost drops while crashed
  std::uint64_t wal_replayed = 0;        ///< WAL records replayed at boot
  std::uint64_t wal_dirty = 0;           ///< 1 while the WAL is sticky-dirty
  std::uint64_t snapshot_writes = 0;
  std::uint64_t snapshot_failures = 0;   ///< spills skipped or failed

  static const StatField<NodeStats> kFields[];
};

inline constexpr StatField<NodeStats> NodeStats::kFields[] = {
    {metric::kDroppedWhileDown, &NodeStats::dropped_while_down},
    {metric::kWalReplayed, &NodeStats::wal_replayed},
    {metric::kWalDirty, &NodeStats::wal_dirty},
    {metric::kSnapshotWrites, &NodeStats::snapshot_writes},
    {metric::kSnapshotFailures, &NodeStats::snapshot_failures},
};
static_assert(covers_every_field<NodeStats>());

/// One node's counters as reported over kFetchStats: each layer's stats
/// struct, whole.
struct NodeNetStats {
  ReliableStats reliable;
  TcpStats tcp;
  FaultStatsNet faults;  ///< FaultyTransport injections
  ShardStats shard;      ///< ShardMux routing and rings
  WalStats wal;          ///< zeros on a node without a state dir
  NodeStats node;

  NodeNetStats& operator+=(const NodeNetStats& other) noexcept;
};

/// The parts of a NodeNetStats in wire order; the only list of them.
inline constexpr std::tuple kNodeNetStatsParts{
    &NodeNetStats::reliable, &NodeNetStats::tcp, &NodeNetStats::faults,
    &NodeNetStats::shard, &NodeNetStats::wal, &NodeNetStats::node};

/// f(name, value) for every counter of every part, in wire order.
template <class N, class F>
  requires std::same_as<std::remove_const_t<N>, NodeNetStats>
void for_each_stat(N& s, F&& f) {
  std::apply([&](auto... part) { (for_each_stat(s.*part, f), ...); },
             kNodeNetStatsParts);
}

inline NodeNetStats& NodeNetStats::operator+=(
    const NodeNetStats& other) noexcept {
  std::apply([&](auto... part) { ((this->*part += other.*part), ...); },
             kNodeNetStatsParts);
  return *this;
}

/// Union-style control message; fields beyond `op` are meaningful per op
/// (see the table above).  Kept flat — the control plane is a handful of
/// messages, not a protocol family.
struct ControlMessage {
  ControlOp op = ControlOp::kPing;
  bool flag = false;  ///< kPong: ready; kDoneReply: done; kLogReply: more
  std::uint64_t time_scale = 1;    ///< kRun
  Script script;                   ///< kRun
  ProcessId peer = 0;              ///< kKillConn
  std::uint64_t cursor = 0;        ///< kFetchLog: log offset; kLogReply: next
  std::vector<std::uint8_t> bytes; ///< kLogReply: encoded log records
  std::string text;                ///< kError: diagnostic
  NodeNetStats stats;              ///< kStatsReply
  NetFaultPlan faults;             ///< kSetFaults
};

[[nodiscard]] std::vector<std::uint8_t> encode_control(const ControlMessage& m);

/// The whole Control frame a node sends for reply `m`.  A reply too big for
/// one frame (over kMaxFrameBytes) goes out as a kError naming the cap
/// instead, so the driver's call fails like any other error and the node
/// keeps running.
[[nodiscard]] std::vector<std::uint8_t> encode_control_reply(
    const ControlMessage& m);

/// std::nullopt on malformed input (unknown op, truncated fields, trailing
/// bytes, oversized script).
[[nodiscard]] std::optional<ControlMessage> decode_control(
    std::span<const std::uint8_t> bytes);

}  // namespace dsm
