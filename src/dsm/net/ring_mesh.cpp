#include "dsm/net/ring_mesh.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {

// -- RingMesh -----------------------------------------------------------------

RingMesh::RingMesh(ProcessId base, std::size_t count, std::size_t ring_capacity)
    : base_(base), count_(count) {
  DSM_REQUIRE(count_ >= 1);
  rings_.resize(count_ * count_);
  for (std::size_t i = 0; i < count_; ++i) {
    for (std::size_t j = 0; j < count_; ++j) {
      if (i == j) continue;
      rings_[i * count_ + j] = std::make_unique<SpscRing<Msg>>(ring_capacity);
    }
  }
  doorbells_.resize(count_, -1);
  for (std::size_t j = 0; j < count_; ++j) {
    doorbells_[j] = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    DSM_REQUIRE(doorbells_[j] >= 0 && "eventfd");
  }
  armed_ = std::vector<Armed>(count_);
}

RingMesh::~RingMesh() {
  for (const int fd : doorbells_) {
    if (fd >= 0) ::close(fd);
  }
}

std::size_t RingMesh::ring_index(ProcessId from, ProcessId to) const {
  DSM_REQUIRE(hosts(from) && hosts(to) && from != to);
  return std::size_t(from - base_) * count_ + std::size_t(to - base_);
}

bool RingMesh::post(ProcessId from, ProcessId to, Payload bytes) {
  Msg msg{from, std::move(bytes)};
  if (!rings_[ring_index(from, to)]->try_push(msg)) return false;
  // Dekker-style wakeup: the consumer arms then re-drains; we push then
  // check the arm.  The seq_cst fences on both sides guarantee that either
  // our push is visible to the consumer's re-drain, or its arm is visible to
  // our check (and we ring).  The consumer only arms when about to sleep, so
  // while it keeps up this is push + fence + one read-shared load — the
  // exchange and the eventfd write are paid once per sleep/wake cycle, never
  // per message.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (armed_[to - base_].flag.load(std::memory_order_relaxed) &&
      armed_[to - base_].flag.exchange(false, std::memory_order_acq_rel)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(doorbells_[to - base_], &one, sizeof one);
  }
  return true;
}

std::size_t RingMesh::drain(ProcessId self, MessageSink& sink) {
  DSM_REQUIRE(hosts(self));
  std::size_t delivered = 0;
  const std::size_t me = self - base_;
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == me) continue;
    auto& ring = *rings_[i * count_ + me];
    while (auto msg = ring.try_pop()) {
      sink.deliver(msg->from, std::span<const std::uint8_t>(*msg->bytes));
      ++delivered;
    }
  }
  return delivered;
}

void RingMesh::arm(ProcessId self) {
  DSM_REQUIRE(hosts(self));
  // The fence pairs with the one in post(): a producer whose push the
  // caller's follow-up drain misses must see this store and ring.
  armed_[self - base_].flag.store(true, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void RingMesh::acknowledge(ProcessId self) {
  DSM_REQUIRE(hosts(self));
  std::uint64_t counter = 0;
  while (::read(doorbells_[self - base_], &counter, sizeof counter) > 0) {
  }
}

int RingMesh::doorbell_fd(ProcessId self) const {
  DSM_REQUIRE(hosts(self));
  return doorbells_[self - base_];
}

bool RingMesh::outbound_empty(ProcessId self) const {
  DSM_REQUIRE(hosts(self));
  const std::size_t me = self - base_;
  for (std::size_t j = 0; j < count_; ++j) {
    if (j == me) continue;
    if (!rings_[me * count_ + j]->empty()) return false;
  }
  return true;
}

void RingMesh::close() {
  for (auto& ring : rings_) {
    if (ring) ring->close();
  }
}

// -- ShardMux -----------------------------------------------------------------

void ShardMux::start() {
  if (mesh_ == nullptr) return;
  started_ = true;
  // The doorbell makes ring arrivals look like socket readability: the
  // NetLoop sleeps in poll() and a co-located producer's post() wakes it.
  loop_->watch(mesh_->doorbell_fd(self_), [this](NetLoop::Ready) {
    ++stats_.ring_wakeups;
    mesh_->acknowledge(self_);
    drain();
  });
  // Tick-edge arm + drain: the hook runs at the pre-poll edge, so the loop
  // always goes to sleep with the doorbell armed and the rings re-checked —
  // a post the re-drain misses rings the armed eventfd and the poll returns
  // immediately (see RingMesh::arm).  The hook outlives the mux; guard with
  // alive_.
  loop_->add_tick_hook([this, alive = alive_] {
    if (!*alive) return;
    mesh_->arm(self_);
    drain();
  });
}

void ShardMux::send(ProcessId from, ProcessId to, Payload payload) {
  if (mesh_ != nullptr && mesh_->hosts(to)) {
    DSM_REQUIRE(from == self_ && to != self_);
    ++stats_.local_frames;
    if (mesh_->post(from, to, std::move(payload))) {
      ++stats_.ring_pushes;
    } else {
      // Datagram semantics, same as a send to a down TCP peer: drop, count,
      // let the ARQ repair.  Dropping (not blocking) is what makes the mesh
      // deadlock-free — a full ring never stalls the producer's loop.
      ++stats_.ring_overflows;
    }
    return;
  }
  // Only count the split when a mesh exists: the non-sharded ProcessNode
  // also routes through the mux, and every frame there would be "cross".
  if (mesh_ != nullptr) ++stats_.cross_frames;
  tcp_->send(from, to, std::move(payload));
}

void ShardMux::drain() {
  if (mesh_ == nullptr || sink_ == nullptr) return;
  const std::size_t n = mesh_->drain(self_, *sink_);
  if (n > 0) {
    stats_.ring_pops += n;
    ++stats_.ring_drains;
  }
}

bool ShardMux::flushed() const {
  if (!tcp_->flushed()) return false;
  return mesh_ == nullptr || mesh_->outbound_empty(self_);
}

bool ShardMux::fully_connected() const {
  // TcpTransport already discounts config_.local_peers, so its notion of
  // "fully connected" is exactly "every socket peer up".
  return tcp_->fully_connected();
}

}  // namespace dsm
