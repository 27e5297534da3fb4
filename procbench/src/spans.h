// procbench — spans around the calls the replay makes into each layer.
//
// A span records its layer, the node it ran on, the write it concerns (the
// request identifier shared by every span of one write), its parent span and
// its start/end on the steady clock.  A layer's self time is its spans'
// durations minus the parts their child spans cover.  Spans stay in memory
// and are written out once, after the run (write_csv).
//
// A disabled tracer opens no spans at all: the untraced replay runs the same
// code with one branch per call site, and the wall-time gap between the two
// replays is the tracing overhead.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "dsm/common/types.h"

namespace procbench {

enum class Layer : std::uint8_t {
  kWrite,      ///< CausalProtocol::write (its payload encode included)
  kRead,       ///< CausalProtocol::read
  kOnMessage,  ///< CausalProtocol::on_message (decode, buffer, apply)
  kObserve,    ///< the RunTelemetry observer tee, one call per event
  kCount,
};

[[nodiscard]] constexpr const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kWrite:
      return "protocols.write";
    case Layer::kRead:
      return "protocols.read";
    case Layer::kOnMessage:
      return "protocols.on_message";
    case Layer::kObserve:
      return "telemetry.observe";
    case Layer::kCount:
      break;
  }
  return "?";
}

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    Layer layer = Layer::kWrite;
    std::int32_t parent = -1;  ///< index of the parent span, -1 for a root
    dsm::ProcessId at = 0;
    dsm::WriteId write;
    std::int64_t start_ns = 0;  ///< since the tracer's epoch
    std::int64_t end_ns = 0;
  };

  /// RAII span; a default-constructed one (disabled tracer) does nothing.
  class Span {
   public:
    Span() = default;
    Span(Tracer* t, std::size_t index) : t_(t), index_(index) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (t_ != nullptr) t_->close(index_);
    }

   private:
    Tracer* t_ = nullptr;
    std::size_t index_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] Span span(Layer layer, dsm::ProcessId at, dsm::WriteId write) {
    if (!enabled_) return {};
    Record r;
    r.layer = layer;
    r.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    r.at = at;
    r.write = write;
    records_.push_back(r);
    open_.push_back(records_.size() - 1);
    child_ns_.push_back(0);
    records_.back().start_ns = now_ns();
    return Span(this, records_.size() - 1);
  }

  /// Mean self time per span of `layer`, in ns (0 without spans).
  [[nodiscard]] double self_ns(Layer layer) const {
    const auto i = static_cast<std::size_t>(layer);
    return calls_[i] == 0 ? 0.0
                          : static_cast<double>(self_ns_[i]) /
                                static_cast<double>(calls_[i]);
  }

  /// One line per span: index,parent,layer,at,write_proc,write_seq,start,end.
  bool write_csv(std::FILE* out) const {
    std::fprintf(out, "span,parent,layer,at,write_proc,write_seq,start_ns,end_ns\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(out, "%zu,%d,%s,%u,%u,%llu,%lld,%lld\n", i, r.parent,
                   layer_name(r.layer), r.at, r.write.proc,
                   static_cast<unsigned long long>(r.write.seq),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
    return std::ferror(out) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  void close(std::size_t index) {
    Record& r = records_[index];
    r.end_ns = now_ns();
    const std::int64_t dur = r.end_ns - r.start_ns;
    const auto layer = static_cast<std::size_t>(r.layer);
    self_ns_[layer] += dur - child_ns_.back();
    ++calls_[layer];
    open_.pop_back();
    child_ns_.pop_back();
    if (!child_ns_.empty()) child_ns_.back() += dur;
  }

  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::size_t> open_;       ///< stack of open span indices
  std::vector<std::int64_t> child_ns_;  ///< per open span: covered by children
  std::array<std::int64_t, kLayers> self_ns_{};
  std::array<std::uint64_t, kLayers> calls_{};
};

}  // namespace procbench
