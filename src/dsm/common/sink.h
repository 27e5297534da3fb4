// optcm — the transport-agnostic receiver interface.
//
// Every transport (the deterministic simulator's Network, the TcpTransport
// and the RingMesh) pushes received byte payloads into a MessageSink; the
// ARQ layer and the recovery layer implement it so they can be stacked
// between the transport and a protocol.  Lives in common/ because it is the
// one interface the transport layers and the protocol-side adapters share.

#pragma once

#include <cstdint>
#include <span>

#include "dsm/common/types.h"

namespace dsm {

/// Receiver half of a process.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void deliver(ProcessId from, std::span<const std::uint8_t> bytes) = 0;
};

}  // namespace dsm
