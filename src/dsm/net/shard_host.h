// optcm — ShardHost: several protocol shards in one OS process, one core
// each (docs/ARCHITECTURE.md "the shard-per-core hot path").
//
// The host owns the RingMesh and runs one ProcessNode per shard on its own
// thread, pinned to its own core.  Each shard keeps the full classic stack —
// NetLoop, TcpTransport (with the co-located peers excluded), ShardMux,
// FaultyTransport, NodeStack (ARQ + ProtocolHost) — and its own listener, so
// the cluster driver steers a sharded deployment exactly like a forked one: n
// control ports, n nodes, identical wire protocol.  Only the transport
// between co-located shards changes, from loopback TCP to SPSC rings.
//
// run() blocks until every shard has acknowledged its control kShutdown.

#pragma once

#include <cstddef>
#include <vector>

#include "dsm/net/process_node.h"
#include "dsm/net/ring_mesh.h"

namespace dsm {

struct ShardHostConfig {
  /// One fully-populated node config per shard; shard i is process
  /// configs[i].shape.self and the ids must be consecutive.  The `mesh`
  /// field is the host's to fill — leave it null.
  std::vector<ProcessNodeConfig> shards;
  /// Pin shard i's thread to core (self % hardware_concurrency).  Off only
  /// for tests on constrained machines.
  bool pin_cores = true;
  std::size_t ring_capacity = kRingMeshCapacity;
};

class ShardHost {
 public:
  explicit ShardHost(ShardHostConfig config);

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  /// Boot every shard on its own pinned thread and block until all of them
  /// have shut down (each ProcessNode::run() returned).
  void run();

 private:
  ShardHostConfig config_;
};

}  // namespace dsm
