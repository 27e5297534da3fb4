// Tests for the event core: the EventQueue against a reference heap under
// random schedule/cancel/step traffic, and parked ReadUntil steps — their
// poll grid, deadline and crash behaviour, and that nothing of an await
// stays queued once it completed.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/protocols/registry.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/sim/event_queue.h"
#include "dsm/workload/script.h"
#include "dsm/workload/script_runner.h"

namespace dsm {
namespace {

// ------------------------------------------------------------ EventQueue --

TEST(EventQueue, CancelledEventNeverFiresNorMovesNow) {
  EventQueue q;
  std::vector<int> fired;
  const auto a = q.schedule_at(10, [&] { fired.push_back(1); });
  q.schedule_at(20, [&] { fired.push_back(2); });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // already gone
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_at(), SimTime{20});
  EXPECT_EQ(q.run_until(15), 0u);
  EXPECT_EQ(q.now(), 0u);
  q.advance_to(15);
  EXPECT_EQ(q.now(), 15u);
  q.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(q.now(), 20u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(EventQueue::Handle{}));
}

TEST(EventQueue, HandleOfAReusedSlotCancelsNothing) {
  EventQueue q;
  int fired = 0;
  const auto a = q.schedule_at(5, [&] { ++fired; });
  q.run();
  // The new event takes a's freed slot; a's handle must not reach it.
  q.schedule_at(6, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(a));
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ManyCancelsKeepOrder) {
  // Enough cancelled keys to force a heap rebuild, with the survivors
  // still firing in (time, insertion) order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventQueue::Handle> doomed;
  for (int i = 0; i < 500; ++i) {
    const auto t = static_cast<SimTime>(1000 - i % 7);
    if (i % 5 == 0) {
      q.schedule_at(t, [&fired, i] { fired.push_back(i); });
    } else {
      doomed.push_back(q.schedule_at(t, [] { FAIL(); }));
    }
  }
  for (const auto& h : doomed) EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.pending(), 100u);
  q.run();
  std::vector<int> expect;
  for (SimTime t = 994; t <= 1000; ++t) {
    for (int i = 0; i < 500; i += 5) {
      if (static_cast<SimTime>(1000 - i % 7) == t) expect.push_back(i);
    }
  }
  EXPECT_EQ(fired, expect);
}

/// Lockstep model: every operation goes to the EventQueue and to a reference
/// std::priority_queue of (at, seq) with a cancelled set.  Actions schedule
/// and cancel from inside step(), through the same two-sided operations.
class QueueModel {
 public:
  explicit QueueModel(std::uint64_t seed) : rng_(seed) {}

  void schedule(SimTime at) {
    const std::uint64_t id = next_id_++;
    const auto h = q_.schedule_at(at, [this, id] { fire(id); });
    handles_[id] = h;
    live_.insert(id);
    pool_.push_back(id);
    ref_.push({at, id});
  }

  /// Cancel a random known id (possibly fired or cancelled already).
  void cancel_random() {
    if (pool_.empty()) return;
    const std::size_t i = rng_.below(pool_.size());
    const std::uint64_t id = pool_[i];
    pool_[i] = pool_.back();
    pool_.pop_back();
    cancel(id);
  }

  void cancel_front() {
    const auto top = ref_top();
    if (top) cancel(top->second);
  }

  void step() {
    // Pop the reference first, so an action's cancel_front() aims at the
    // event after it, as it does in the queue.
    const auto expect = ref_top();
    if (expect) ref_.pop();
    fired_ = std::nullopt;
    ASSERT_EQ(q_.step(), expect.has_value());
    if (!expect) return;
    ASSERT_EQ(fired_, expect->second);
    ASSERT_EQ(q_.now(), expect->first);
  }

  void check_views() {
    const auto top = ref_top();
    ASSERT_EQ(q_.empty(), live_.empty());
    ASSERT_EQ(q_.pending(), live_.size());
    ASSERT_EQ(q_.next_at().has_value(), top.has_value());
    if (top) {
      ASSERT_EQ(*q_.next_at(), top->first);
    }
  }

  [[nodiscard]] EventQueue& queue() noexcept { return q_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::size_t fired_count() const noexcept { return n_fired_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;

  void cancel(std::uint64_t id) {
    const bool pending = live_.erase(id) != 0;
    EXPECT_EQ(q_.cancel(handles_.at(id)), pending) << "id " << id;
    if (pending) cancelled_.insert(id);
  }

  void fire(std::uint64_t id) {
    fired_ = id;
    ++n_fired_;
    EXPECT_EQ(live_.erase(id), 1u);
    // The firing event's own handle is already spent.
    EXPECT_FALSE(q_.cancel(handles_.at(id)));
    if (id % 3 == 0) schedule(q_.now() + rng_.below(40));
    if (id % 4 == 0) schedule(q_.now());  // same instant, later seq
    if (id % 5 == 0) cancel_random();
    if (id % 7 == 0) cancel_front();
  }

  /// Earliest live reference key, discarding cancelled ones on the way.
  std::optional<Key> ref_top() {
    while (!ref_.empty() && cancelled_.count(ref_.top().second) != 0) {
      ref_.pop();
    }
    if (ref_.empty()) return std::nullopt;
    return ref_.top();
  }

  EventQueue q_;
  Rng rng_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
  std::set<std::uint64_t> cancelled_;
  std::set<std::uint64_t> live_;
  std::map<std::uint64_t, EventQueue::Handle> handles_;
  std::vector<std::uint64_t> pool_;
  std::uint64_t next_id_ = 0;
  std::optional<std::uint64_t> fired_;
  std::size_t n_fired_ = 0;
};

TEST(EventQueueModel, MatchesReferenceHeapOverRandomOperations) {
  QueueModel m(0xE7E47);
  constexpr int kOps = 100'000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t r = m.rng().below(100);
    if (r < 45) {
      m.schedule(m.queue().now() + m.rng().below(1000));
    } else if (r < 60) {
      m.cancel_random();
    } else if (r < 65) {
      m.cancel_front();
    } else {
      m.step();
    }
    m.check_views();
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!m.queue().empty()) {
    m.step();
    m.check_views();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(m.fired_count(), 10'000u);
}

// -------------------------------------------------------- parked awaits --

/// Captures a protocol's outgoing payloads instead of sending them.
class CaptureEndpoint final : public Endpoint {
 public:
  void broadcast(Payload payload) override {
    sent.push_back(std::move(payload));
  }
  void send(ProcessId /*to*/, Payload payload) override {
    sent.push_back(std::move(payload));
  }
  std::vector<Payload> sent;
};

/// Two OptP processes on one queue: p0 writes x0 = 7, and the test decides
/// when p1 applies it; p1 runs one ReadUntil(x0, 7) on a 50 µs grid with a
/// 1000 µs timeout, woken through an AwaitWaker.
class AwaitRig {
 public:
  static constexpr SimTime kPoll = 50;
  static constexpr SimTime kTimeout = 1000;
  static constexpr Value kAwaited = 7;

  AwaitRig()
      : recorder_(2, 1, [this] { return queue.now(); }),
        waker_(2),
        waking_({&recorder_, &waker_}),
        writer_(make_protocol(ProtocolKind::kOptP, 0, 2, 1, out0_, waking_)),
        reader_(make_protocol(ProtocolKind::kOptP, 1, 2, 1, out1_, waking_)),
        script_{await_step()},
        runner_(
            queue, recorder_,
            [this]() -> CausalProtocol* { return up_ ? reader_.get() : nullptr; },
            1, script_) {
    writer_->start();
    reader_->start();
    waker_.attach(1, &runner_);
    runner_.begin();
  }

  /// p0 writes the awaited value now; p1 applies it at `at`.
  void apply_at(SimTime at) {
    writer_->write(0, kAwaited);
    const Payload m = out0_.sent.back();
    queue.schedule_at(at, [this, m] { reader_->on_message(0, *m); });
  }

  void crash_at(SimTime at) {
    queue.schedule_at(at, [this] {
      up_ = false;
      runner_.suspend();
    });
  }

  void restart_at(SimTime at) {
    queue.schedule_at(at, [this] {
      up_ = true;
      runner_.resume();
    });
  }

  /// p1's one read: when it returned, what it saw, and whether it came
  /// after p1 applied the write.
  struct Read {
    SimTime time = 0;
    Value value = kBottom;
    bool after_apply = false;
  };
  [[nodiscard]] std::optional<Read> read() const {
    bool applied = false;
    for (const RunEvent& e : recorder_.events()) {
      if (e.at != 1) continue;
      if (e.kind == EvKind::kApply) applied = true;
      if (e.kind == EvKind::kReturn) return Read{e.time, e.value, applied};
    }
    return std::nullopt;
  }

  [[nodiscard]] bool done() const { return runner_.done(); }

  EventQueue queue;

 private:
  static ScriptStep await_step() {
    ScriptStep s = read_until_step(0, 0, kAwaited, kPoll);
    s.timeout = kTimeout;
    return s;
  }

  RunRecorder recorder_;
  AwaitWaker waker_;
  FanoutObserver waking_;
  CaptureEndpoint out0_;
  CaptureEndpoint out1_;
  std::unique_ptr<CausalProtocol> writer_;
  std::unique_ptr<CausalProtocol> reader_;
  Script script_;
  bool up_ = true;
  ScriptRunner runner_;
};

TEST(ParkedAwait, ParksOnOneDeadlineInsteadOfPolling) {
  AwaitRig rig;
  rig.queue.run_until(0);
  // Parked at t0 = 0: the deadline is the only queued event of the await.
  EXPECT_EQ(rig.queue.pending(), 1u);
  EXPECT_EQ(rig.queue.next_at(), SimTime{AwaitRig::kTimeout});
}

TEST(ParkedAwait, OffGridApplyReadsAtTheNextPollInstant) {
  AwaitRig rig;
  rig.apply_at(120);
  rig.queue.run_until(120);
  EXPECT_EQ(rig.queue.pending(), 2u);  // deadline + the one re-check
  EXPECT_EQ(rig.queue.next_at(), SimTime{150});
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, 150u);
  EXPECT_EQ(r->value, AwaitRig::kAwaited);
  EXPECT_TRUE(rig.done());
  EXPECT_TRUE(rig.queue.empty());  // the deadline was cancelled
}

TEST(ParkedAwait, OnGridApplyReadsAtThatInstantAfterTheApply) {
  AwaitRig rig;
  rig.apply_at(150);
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, 150u);
  EXPECT_EQ(r->value, AwaitRig::kAwaited);
  EXPECT_TRUE(r->after_apply);
  EXPECT_TRUE(rig.queue.empty());
}

TEST(ParkedAwait, NeverWrittenValueForcesAStaleReadAtTheDeadline) {
  AwaitRig rig;
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, AwaitRig::kTimeout);
  EXPECT_EQ(r->value, kBottom);
  EXPECT_TRUE(rig.done());
  EXPECT_TRUE(rig.queue.empty());
}

TEST(ParkedAwait, CrashWithRestartBeforeTheNextPollInstant) {
  // Applied at 60 (re-check due at 100), down over [70, 90): the step was
  // never stashed, so the poll instant 100 reads.
  AwaitRig rig;
  rig.apply_at(60);
  rig.crash_at(70);
  rig.restart_at(90);
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, 100u);
  EXPECT_EQ(r->value, AwaitRig::kAwaited);
  EXPECT_TRUE(rig.queue.empty());
}

TEST(ParkedAwait, CrashWithRestartAfterTheNextPollInstant) {
  // Down over [70, 130): the poll instant 100 stashes the step, and the
  // restart replays it at once.
  AwaitRig rig;
  rig.apply_at(60);
  rig.crash_at(70);
  rig.restart_at(130);
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, 130u);
  EXPECT_EQ(r->value, AwaitRig::kAwaited);
  EXPECT_TRUE(rig.queue.empty());
}

TEST(ParkedAwait, StashedAwaitReparksOnTheRestartGrid) {
  // Stashed at 100 having waited 100 µs; it parks again at the restart
  // (130), so its grid is 130 + k·50 and the apply at 500 reads at 530.
  AwaitRig rig;
  rig.crash_at(70);
  rig.restart_at(130);
  rig.apply_at(500);
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, 530u);
  EXPECT_EQ(r->value, AwaitRig::kAwaited);
  EXPECT_TRUE(rig.queue.empty());
}

TEST(ParkedAwait, StashedAwaitKeepsItsTimeout) {
  // Never written: 100 µs were waited before the stash, so the deadline
  // after the restart at 130 is 130 + 900.
  AwaitRig rig;
  rig.crash_at(70);
  rig.restart_at(130);
  rig.queue.run();
  const auto r = rig.read();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->time, 1030u);
  EXPECT_EQ(r->value, kBottom);
  EXPECT_TRUE(rig.queue.empty());
}

}  // namespace
}  // namespace dsm
