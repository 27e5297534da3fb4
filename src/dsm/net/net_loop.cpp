#include "dsm/net/net_loop.h"

#include <algorithm>
#include <ctime>

namespace dsm {

SimTime NetLoop::wall_now() const {
  const auto d = std::chrono::steady_clock::now() - epoch_;
  return static_cast<SimTime>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

void NetLoop::watch(int fd, IoCallback cb) {
  fds_[fd] = Watch{false, std::move(cb)};
}

void NetLoop::set_want_write(int fd, bool want) {
  const auto it = fds_.find(fd);
  if (it != fds_.end()) it->second.want_write = want;
}

void NetLoop::unwatch(int fd) { fds_.erase(fd); }

void NetLoop::add_tick_hook(std::function<void()> hook) {
  tick_hooks_.push_back(std::move(hook));
}

void NetLoop::run_tick_hooks() {
  // Index loop: a hook may register further hooks (shard boot paths).
  for (std::size_t i = 0; i < tick_hooks_.size(); ++i) tick_hooks_[i]();
}

void NetLoop::service_queue() {
  const SimTime t = wall_now();
  queue_.run_until(t);
  queue_.advance_to(t);
}

void NetLoop::poll_once(SimTime max_wait) {
  // Fire anything already due before sleeping: a callback from the previous
  // dispatch round may have scheduled immediate work.
  service_queue();
  // Pre-poll batching edge: flush everything queued since the last tick
  // (caller sends between poll_once calls, timer-driven sends just fired)
  // before the loop commits to sleeping.
  run_tick_hooks();

  SimTime wait = max_wait;
  if (const auto next = queue_.next_at()) {
    const SimTime now = wall_now();
    wait = *next > now ? std::min(wait, *next - now) : 0;
  }
  wait = std::min<SimTime>(wait, sim_s(1));
  const timespec timeout{static_cast<std::time_t>(wait / sim_s(1)),
                         static_cast<long>(wait % sim_s(1)) * 1000};

  pfds_.clear();
  for (const auto& [fd, w] : fds_) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (w.want_write) p.events |= POLLOUT;
    pfds_.push_back(p);
  }

  const int n = ::ppoll(pfds_.data(), static_cast<nfds_t>(pfds_.size()),
                        &timeout, nullptr);
  // Stamp this tick's callbacks with the time the loop woke.
  service_queue();
  if (n > 0) {
    for (const pollfd& p : pfds_) {
      if (p.revents == 0) continue;
      // Callbacks may watch/unwatch fds (accept, close, reconnect); re-look
      // the fd up so a registration removed mid-dispatch is skipped.
      const auto it = fds_.find(p.fd);
      if (it == fds_.end()) continue;
      Ready r;
      r.readable = (p.revents & POLLIN) != 0;
      r.writable = (p.revents & POLLOUT) != 0;
      r.hangup = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      // Copy the callback: the watch entry may be replaced underneath us.
      IoCallback cb = it->second.cb;
      cb(r);
    }
  }
  service_queue();
  // Post-dispatch batching edge: sends produced while handling this tick's
  // I/O and timers go out in the same tick (an RTT costs no extra tick).
  run_tick_hooks();
}

void NetLoop::run(const std::function<bool()>& stop) {
  while (!stop()) {
    poll_once(sim_ms(50));
  }
}

}  // namespace dsm
