// procbench — per-layer replay of a recorded cluster run.
//
// The nodes are not instrumented: per-layer times come from replaying what
// they recorded through each layer's public functions inside the benchmark
// process, with a span around every call.
//
//   protocols + telemetry  merge_runs() gives one causal order of every
//       node's events.  Each node gets a fresh make_protocol(optp) instance
//       behind a capturing Endpoint, observed through its own RunTelemetry
//       tee (as on a node).  A send event replays the node's write, a return
//       event its read, a receipt event feeds the captured payload of that
//       write to on_message — so every instance sees the inputs its node saw,
//       in the same order, and must produce the same applies (checked).
//   codec   decode_message and encode_message over every captured update.
//   net     FrameAssembler feed+next over the frames each node received: one
//           data frame per receipt, one ack frame per copy of its own writes.
//   storage (durable runs) the node's WAL records appended to a fresh WAL
//           with the node's fsync policy, and its final snapshot rewritten
//           through SnapshotFile, both in the run's state directory.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "dsm/net/merge.h"

namespace procbench {

struct LayerReplay {
  std::string error;  ///< replay diverged from the recorded run
  // Mean self time per call, ns.
  double write_ns = 0;
  double read_ns = 0;
  double on_message_ns = 0;
  double observe_ns = 0;
  double drain_scans_per_apply = 0;
  double snapshot_bytes = 0;  ///< mean CausalProtocol::snapshot size per node
  double encode_ns = 0;
  double decode_ns = 0;
  double update_bytes = 0;
  double frame_reassembly_ns = 0;  ///< per frame
  double traced_s = 0;    ///< fastest replay with spans
  double untraced_s = 0;  ///< fastest replay without
};

/// Replays `merged` (kProcs nodes, kVars vars).  When `spans_out` is set the
/// traced replay's spans are written there as CSV.
[[nodiscard]] LayerReplay replay_layers(const dsm::MergedRun& merged,
                                        std::FILE* spans_out);

struct StorageReplay {
  std::string error;
  double wal_append_us = 0;      ///< per record, node fsync policy
  double wal_bytes = 0;          ///< mean WAL file size per node
  double snapshot_bytes = 0;     ///< mean final snapshot file size per node
  double snapshot_write_us = 0;  ///< per SnapshotFile::write of that size
  double checkpoint_bytes = 0;   ///< mean host checkpoint inside the snapshot
};

/// Replays the storage layer from a durable run's state root (all nodes shut
/// down).  Scratch files go next to the node directories.
[[nodiscard]] StorageReplay replay_storage(const std::string& state_root);

}  // namespace procbench
