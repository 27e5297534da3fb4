#include "dsm/net/shard_host.h"

#include <sched.h>

#include <thread>
#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {

namespace {

/// Best-effort core pinning: shard-per-core is a throughput posture, not a
/// correctness requirement, so a failed setaffinity (cgroup cpuset, exotic
/// topology) is silently ignored.
void pin_to_core(std::size_t core) {
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % n, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

ShardHost::ShardHost(ShardHostConfig config) : config_(std::move(config)) {
  DSM_REQUIRE(!config_.shards.empty());
  for (std::size_t i = 1; i < config_.shards.size(); ++i) {
    DSM_REQUIRE(config_.shards[i].shape.self ==
                    config_.shards[0].shape.self + i &&
                "shard ids must be consecutive");
  }
}

void ShardHost::run() {
  const ProcessId base = config_.shards[0].shape.self;
  RingMesh mesh(base, config_.shards.size(), config_.ring_capacity);

  // One thread per shard; each constructs its node IN-thread (the node is
  // loop-confined from birth) and runs it to shutdown.
  std::vector<std::thread> threads;
  threads.reserve(config_.shards.size());
  for (std::size_t i = 0; i < config_.shards.size(); ++i) {
    ProcessNodeConfig node_config = config_.shards[i];
    node_config.mesh = &mesh;
    threads.emplace_back(
        [this, i, node_config = std::move(node_config)]() mutable {
          if (config_.pin_cores) pin_to_core(node_config.shape.self);
          ProcessNode node(std::move(node_config));
          node.run();
        });
  }
  for (auto& t : threads) t.join();
}

}  // namespace dsm
