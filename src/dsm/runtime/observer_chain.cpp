#include "dsm/runtime/observer_chain.h"

#include <utility>

#include "dsm/common/contracts.h"

namespace dsm {

ObserverChain::ObserverChain(RunRecorder& recorder, std::size_t n_procs,
                             std::size_t n_vars, Links links)
    : head_(&recorder) {
  DSM_REQUIRE((!links.replay_filter || links.objects == nullptr) &&
              "typed objects are not supported in recoverable mode");
  if (links.telemetry != nullptr) {
    head_ = &links.telemetry->observe_through(*head_);
  }
  if (!links.beside.empty()) {
    links.beside.insert(links.beside.begin(), head_);
    fanout_ = std::make_unique<FanoutObserver>(std::move(links.beside));
    head_ = fanout_.get();
  }
  if (links.replay_filter) {
    filter_ = std::make_unique<ReplayFilterObserver>(*head_);
    head_ = filter_.get();
  }
  if (links.objects != nullptr) {
    objects_ = std::make_unique<ObjectStore>(std::move(links.objects), n_procs,
                                             n_vars, *head_);
    head_ = objects_.get();
  }
}

}  // namespace dsm
