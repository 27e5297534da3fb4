#include "dsm/net/causal_memory.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/net/faulty_transport.h"
#include "dsm/net/net_loop.h"
#include "dsm/net/process_node.h"
#include "dsm/runtime/node_stack.h"

namespace dsm {

/// One replica: its loop thread and the stack confined to it.
struct CausalMemory::Replica {
  Replica(RingMesh& mesh, const ProtocolHost::Shape& shape,
          const NetFaultPlan& jitter, ProtocolObserver& observer,
          RunTelemetry* telemetry)
      : mux(loop, nullptr, shape.self, &mesh),
        faulty(loop, mux, shape.self),
        stack(loop.queue(), faulty, shape, net_reliable_defaults(), observer,
              telemetry),
        wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    DSM_REQUIRE(wake_fd >= 0 && "eventfd");
    faulty.set_plan(jitter);
    loop.watch(wake_fd, [this](NetLoop::Ready) { run_posted(); });
    // The ARQ's tick edge after the mux's arm + drain, whose deliveries may
    // send: each peer's batch then goes into its ring in the same tick.
    mux.start();
    loop.add_tick_hook([this] { stack.tick(); });
  }
  ~Replica() { ::close(wake_fd); }

  /// Loop side: run every closure posted so far.  The eventfd is cleared
  /// before the queue is taken, so a post after the take rings it again.
  void run_posted() {
    std::uint64_t count = 0;
    while (::read(wake_fd, &count, sizeof count) > 0) {
    }
    std::vector<std::function<void()>> batch;
    {
      const std::scoped_lock lock(mu);
      batch.swap(ops);
    }
    for (auto& op : batch) op();
  }

  void wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
  }

  NetLoop loop;
  ShardMux mux;
  FaultyTransport faulty;
  NodeStack stack;
  int wake_fd;
  std::mutex mu;
  std::vector<std::function<void()>> ops;  ///< guarded by mu
  std::thread thread;
};

template <typename F>
auto CausalMemory::call(ProcessId p, F&& f) const {
  DSM_REQUIRE(p < replicas_.size());
  Replica& r = *replicas_[p];
  if (stopped_.load(std::memory_order_acquire)) return f(r);
  std::packaged_task<std::invoke_result_t<F&, Replica&>()> task(
      [&f, &r] { return f(r); });
  auto result = task.get_future();
  {
    const std::scoped_lock lock(r.mu);
    r.ops.emplace_back([&task] { task(); });
  }
  r.wake();
  return result.get();
}

namespace {

RunRecorder::ClockFn us_since_now() {
  return [epoch = std::chrono::steady_clock::now()] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  };
}

}  // namespace

CausalMemory::CausalMemory(const Options& options)
    : capacity_(options.capacity),
      recoverable_(options.recoverable),
      telemetry_(options.telemetry),
      clock_(us_since_now()),
      recorder_(options.replicas, options.capacity, clock_),
      chain_(recorder_, options.replicas, options.capacity,
             {.telemetry = options.telemetry,
              .beside = options.extra_observers,
              .replay_filter = options.recoverable,
              .objects = options.protocol_config.objects}),
      mesh_(0, options.replicas) {
  DSM_REQUIRE(options.replicas >= 1);
  DSM_REQUIRE(options.capacity >= 1);
  if (telemetry_ != nullptr) telemetry_->set_clock(clock_);
  // max_jitter_us as FaultyTransport's delay plan: every frame late by
  // 0..max µs, drawn per link from the seed.
  NetFaultPlan jitter;
  jitter.seed = options.seed;
  jitter.all.delay = options.max_jitter_us > 0 ? 1.0 : 0.0;
  jitter.all.delay_max = options.max_jitter_us;
  replicas_.reserve(options.replicas);
  for (ProcessId p = 0; p < options.replicas; ++p) {
    const ProtocolHost::Shape shape{
        options.protocol,        p, options.replicas, options.capacity,
        options.protocol_config, options.recoverable, DurabilityPolicy{}};
    replicas_.push_back(std::make_unique<Replica>(mesh_, shape, jitter,
                                                  chain_.head(), telemetry_));
  }
  // start() may send (the token seed): the frames wait in the rings until
  // the loops run.
  for (auto& r : replicas_) r->stack.start();
  for (auto& r : replicas_) {
    r->thread = std::thread([this, &loop = r->loop] {
      loop.run([this] { return stopping_.load(std::memory_order_acquire); });
    });
  }
}

CausalMemory::~CausalMemory() { shutdown(); }

void CausalMemory::shutdown() {
  if (stopping_.exchange(true)) return;
  for (auto& r : replicas_) r->wake();
  for (auto& r : replicas_) r->thread.join();
  stopped_.store(true, std::memory_order_release);
  if (telemetry_ != nullptr) {
    for (const auto& r : replicas_) r->stack.fold_live(*telemetry_);
    telemetry_->set_clock({});
  }
}

CausalMemory::Session CausalMemory::session(ProcessId replica) {
  DSM_REQUIRE(replica < replicas_.size());
  return Session(*this, replica);
}

std::optional<VarId> CausalMemory::resolve(std::string_view name) {
  const std::scoped_lock lock(names_mu_);
  const auto it = names_.find(std::string(name));
  if (it != names_.end()) return it->second;
  if (names_.size() >= capacity_) return std::nullopt;
  const auto id = static_cast<VarId>(names_.size());
  names_.emplace(std::string(name), id);
  return id;
}

std::size_t CausalMemory::names_in_use() const {
  const std::scoped_lock lock(names_mu_);
  return names_.size();
}

void CausalMemory::write(ProcessId p, VarId x, Value v) {
  call(p, [&](Replica& r) {
    DSM_REQUIRE(r.stack.up() && "write() on a killed process");
    recorder_.record_write(p, x, v);
    if (telemetry_ != nullptr) telemetry_->record_write_op(p, x, v);
    r.stack.host().protocol().write(x, v);
    if (recoverable_) r.stack.host().note_mutation();
  });
}

ReadResult CausalMemory::read(ProcessId p, VarId x) {
  return call(p, [&](Replica& r) {
    DSM_REQUIRE(r.stack.up() && "read() on a killed process");
    const ReadResult result = r.stack.host().protocol().read(x);
    recorder_.record_read(p, x, result);
    // OptP merges Write_co on reads, so reads mutate durable state too.
    if (recoverable_) r.stack.host().note_mutation();
    return result;
  });
}

Value CausalMemory::mutate(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                           Value arg, Value arg2) {
  const ObjectStore* store = objects();
  DSM_REQUIRE(store != nullptr && "mutate() needs protocol_config.objects");
  DSM_REQUIRE(spec == store->spec_of(x) && "spec does not match schema");
  DSM_REQUIRE(spec_for(spec).valid_mutation(opcode));
  return call(p, [&](Replica& r) {
    DSM_REQUIRE(r.stack.up() && "mutate() on a killed process");
    recorder_.record_mutation(p, x, static_cast<std::uint8_t>(spec),
                              static_cast<std::uint8_t>(opcode), arg, arg2);
    if (telemetry_ != nullptr) {
      telemetry_->record_write_op(p, x, arg);
      telemetry_->record_object_op(p, spec);
    }
    r.stack.host().protocol().write_typed(x, static_cast<std::uint8_t>(spec),
                                          static_cast<std::uint8_t>(opcode),
                                          arg, arg2);
    // Still on p's loop thread: the last apply at p is this mutation.
    return store->last_apply_result(p);
  });
}

Value CausalMemory::observe(ProcessId p, VarId x, SpecId spec, OpCode opcode,
                            Value arg) {
  const ObjectStore* store = objects();
  DSM_REQUIRE(store != nullptr && "observe() needs protocol_config.objects");
  DSM_REQUIRE(spec == store->spec_of(x) && "spec does not match schema");
  DSM_REQUIRE(spec_for(spec).valid_accessor(opcode));
  return call(p, [&](Replica& r) {
    DSM_REQUIRE(r.stack.up() && "observe() on a killed process");
    // The real read first: its Write_co merge installs every causally
    // required mutation before the store answers.
    const ReadResult read = r.stack.host().protocol().read(x);
    const Value answer = store->observe(p, x, opcode, arg);
    recorder_.record_accessor(p, x, static_cast<std::uint8_t>(spec),
                              static_cast<std::uint8_t>(opcode), arg, answer,
                              read.writer, store->visible_counts(p, x));
    if (telemetry_ != nullptr) telemetry_->record_object_op(p, spec);
    return answer;
  });
}

ReadResult CausalMemory::peek(ProcessId p, VarId x) const {
  return call(p, [x](Replica& r) {
    return r.stack.up() ? r.stack.host().protocol().peek(x) : ReadResult{};
  });
}

void CausalMemory::kill(ProcessId p) {
  DSM_REQUIRE(recoverable_);
  call(p, [](Replica& r) { r.stack.kill(); });
}

void CausalMemory::restart(ProcessId p) {
  DSM_REQUIRE(recoverable_);
  call(p, [](Replica& r) { r.stack.restart(); });
}

bool CausalMemory::alive(ProcessId p) const {
  return call(p, [](Replica& r) { return r.stack.up(); });
}

ProtocolStats CausalMemory::stats(ProcessId p) const {
  return call(p, [](Replica& r) { return r.stack.host().stats(); });
}

RecoveryStats CausalMemory::recovery_stats() const {
  RecoveryStats total;
  for (ProcessId p = 0; p < n_procs(); ++p) {
    total +=
        call(p, [](Replica& r) { return r.stack.host().recovery_stats(); });
  }
  return total;
}

std::uint64_t CausalMemory::crash_dropped() const {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < n_procs(); ++p) {
    total +=
        call(p, [](Replica& r) { return r.stack.host().dropped_while_down(); });
  }
  return total;
}

bool CausalMemory::sync(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  // Frames each replica has sent and received, at the last poll that found
  // every replica quiescent.
  std::optional<std::vector<std::uint64_t>> settled;
  while (std::chrono::steady_clock::now() < deadline) {
    bool quiescent = true;
    std::vector<std::uint64_t> frames;
    for (ProcessId p = 0; p < replicas_.size(); ++p) {
      const auto [idle, moved] = call(p, [](Replica& r) {
        const ShardStats& s = r.mux.stats();
        return std::pair{r.stack.quiescent() && r.mux.flushed(),
                         s.local_frames + s.ring_pops};
      });
      quiescent = quiescent && idle;
      frames.push_back(moved);
    }
    if (quiescent && settled == frames) return true;
    settled.reset();
    if (quiescent) settled = std::move(frames);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

VarId CausalMemory::Session::var(std::string_view name) {
  const auto var = owner_->resolve(name);
  DSM_REQUIRE(var.has_value() && "variable capacity exhausted");
  return *var;
}

}  // namespace dsm
