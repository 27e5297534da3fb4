// optcm — ObserverChain: the one place that knows the order of a run's
// observer chain.
//
// Every host of protocol stacks (run_sim, ProcessNode, CausalMemory) reports
// protocol events through the same links, innermost first:
//
//   recorder ← telemetry tee ← fanout ← replay filter ← object store
//
// The fanout tees events beside everything below it (a scripted run's
// AwaitWaker, or a CausalMemory user's extra observers).  The replay filter
// (durable process nodes) sits above telemetry and the fanout, so they see
// the deduplicated stream and a suppressed echo wakes nothing.  The object
// store (typed schemas) goes outermost, so it stashes each mutation's
// payload at send/receipt before the apply reaches it.  A restored process
// holds no stash for the writes it received before its crash, so
// recoverable runs and typed schemas exclude each other.  A link not asked
// for is not built: head() is the outermost link, and the chain adds no hop
// of its own.

#pragma once

#include <memory>
#include <vector>

#include "dsm/objects/object_store.h"
#include "dsm/protocols/replay_filter.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

class ObserverChain {
 public:
  /// The optional links.  `telemetry` and the `beside` observers must
  /// outlive the chain.
  struct Links {
    RunTelemetry* telemetry = nullptr;      ///< tee iff non-null
    std::vector<ProtocolObserver*> beside;  ///< fanout iff non-empty
    bool replay_filter = false;
    std::shared_ptr<const ObjectSchema> objects;  ///< store iff non-null
  };

  /// `recorder` is the innermost link and must outlive the chain.
  ObserverChain(RunRecorder& recorder, std::size_t n_procs, std::size_t n_vars,
                Links links);

  ObserverChain(const ObserverChain&) = delete;
  ObserverChain& operator=(const ObserverChain&) = delete;

  /// Where protocols report: the outermost link.
  [[nodiscard]] ProtocolObserver& head() const noexcept { return *head_; }
  /// The replay filter, or null.
  [[nodiscard]] ReplayFilterObserver* filter() const noexcept {
    return filter_.get();
  }
  /// The object store, or null.
  [[nodiscard]] ObjectStore* objects() const noexcept { return objects_.get(); }
  /// Hand the store to a caller that keeps it past the run (its forwarding
  /// target dies with the chain, so no event may reach it afterwards).
  [[nodiscard]] std::unique_ptr<ObjectStore> take_objects() noexcept {
    return std::move(objects_);
  }

 private:
  std::unique_ptr<FanoutObserver> fanout_;
  std::unique_ptr<ReplayFilterObserver> filter_;
  std::unique_ptr<ObjectStore> objects_;
  ProtocolObserver* head_;
};

}  // namespace dsm
