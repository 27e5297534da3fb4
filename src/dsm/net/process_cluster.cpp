#include "dsm/net/process_cluster.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/net/shard_host.h"
#include "dsm/storage/state_dir.h"
#include "dsm/storage/wal_sink.h"

namespace dsm {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] int ms_left(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

std::string_view to_string(ControlError e) {
  switch (e) {
    case ControlError::kNone:
      return "none";
    case ControlError::kTimeout:
      return "ControlTimeout";
    case ControlError::kClosed:
      return "ControlClosed";
    case ControlError::kMalformed:
      return "ControlMalformed";
  }
  return "?";
}

// -- ControlClient ------------------------------------------------------------

ControlClient::~ControlClient() { close(); }

ControlClient::ControlClient(ControlClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rx_(std::move(other.rx_)),
      error_(other.error_) {}

ControlClient& ControlClient::operator=(ControlClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::move(other.rx_);
    error_ = other.error_;
  }
  return *this;
}

void ControlClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ControlClient::write_deadline(const std::uint8_t* data, std::size_t size,
                                   Deadline deadline) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd_, data + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{};
      p.fd = fd_;
      p.events = POLLOUT;
      const int r = ::poll(&p, 1, ms_left(deadline));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) {
        error_ = ControlError::kTimeout;
        return false;
      }
      continue;
    }
    error_ = ControlError::kClosed;
    return false;
  }
  return true;
}

bool ControlClient::connect(const net::Addr& addr, int timeout_ms) {
  (void)std::signal(SIGPIPE, SIG_IGN);  // a dead node must not kill the driver
  close();
  rx_ = FrameAssembler();  // a fresh connection must not inherit old framing
  error_ = ControlError::kNone;
  fd_ = net::dial_blocking(addr, timeout_ms);
  if (fd_ < 0) {
    error_ = ControlError::kClosed;
    return false;
  }
  // Non-blocking from here on: every read AND write below is poll-bounded,
  // so a wedged node can cost at most one deadline, never a hung driver.
  net::set_nonblocking(fd_);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto hello = encode_hello_frame(HelloRole::kControl, /*sender=*/0,
                                        /*n_procs=*/0);
  if (!write_deadline(hello.data(), hello.size(), deadline)) {
    close();
    return false;
  }
  return true;
}

std::optional<ControlMessage> ControlClient::call(const ControlMessage& req,
                                                  int timeout_ms) {
  if (fd_ < 0) {
    error_ = ControlError::kClosed;
    return std::nullopt;
  }
  error_ = ControlError::kNone;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto frame = encode_frame(FrameKind::kControl, encode_control(req));
  if (!write_deadline(frame.data(), frame.size(), deadline)) {
    close();
    return std::nullopt;
  }
  for (;;) {
    if (auto f = rx_.next()) {
      if (f->kind != static_cast<std::uint8_t>(FrameKind::kControl)) {
        error_ = ControlError::kMalformed;
        close();
        return std::nullopt;
      }
      auto msg = decode_control(f->body);
      if (!msg) {
        error_ = ControlError::kMalformed;
        close();
      }
      return msg;
    }
    if (rx_.poisoned()) {
      error_ = ControlError::kMalformed;
      close();
      return std::nullopt;
    }
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int n = ::poll(&p, 1, ms_left(deadline));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error_ = n == 0 ? ControlError::kTimeout : ControlError::kClosed;
      close();
      return std::nullopt;
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t got = ::read(fd_, buf, sizeof buf);
    if (got < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (got <= 0) {
      error_ = ControlError::kClosed;
      close();
      return std::nullopt;
    }
    (void)rx_.feed({buf, static_cast<std::size_t>(got)});
  }
}

// -- ProcessCluster -----------------------------------------------------------

ProcessCluster::ProcessCluster(ProcessClusterConfig config)
    : config_(std::move(config)) {
  // Checked here as well as in each node, so a mismatch fails in the driver.
  DSM_REQUIRE(config_.shape.recoverable == !config_.state_dir.empty() &&
              "a state dir and the recoverable shape go together");
}

std::optional<ControlMessage> ProcessCluster::call_node(
    ProcessId node, const ControlMessage& req, bool idempotent) {
  const int attempts = idempotent ? 1 + config_.control_retries : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    ControlClient& client = controls_[node];
    if (!client.connected()) {
      // The previous round burned the connection (timeout/EOF); a node that
      // is still alive accepts a fresh control Hello on its listen address.
      if (!client.connect(addr_of(node), config_.control_timeout_ms)) {
        last_error_ = client.last_error();
        continue;
      }
    }
    if (auto rep = client.call(req, config_.control_timeout_ms)) return rep;
    last_error_ = client.last_error();
  }
  return std::nullopt;
}

ProcessCluster::~ProcessCluster() {
  if (spawned_) (void)shutdown(/*timeout_ms=*/5000);
  teardown();
}

ProcessNodeConfig ProcessCluster::node_config_of(std::size_t p) const {
  ProcessNodeConfig node_config;
  node_config.shape = config_.shape;
  node_config.shape.self = static_cast<ProcessId>(p);
  node_config.peers = peers_;
  node_config.listen_fd = listen_fds_[p];
  node_config.arq = config_.arq;
  if (!config_.state_dir.empty()) {
    node_config.storage.dir =
        StateDir::node_subdir(config_.state_dir, static_cast<ProcessId>(p));
    node_config.storage.fsync = config_.fsync;
    node_config.storage.group_commit = config_.wal_group_commit;
  }
  node_config.net_faults = config_.net_faults;
  for (const auto& [target, fp] : config_.storage_fail) {
    if (target == static_cast<ProcessId>(p)) {
      node_config.storage.failpoints.push_back(fp);
    }
  }
  return node_config;
}

pid_t ProcessCluster::spawn_child(std::size_t group) {
  const std::size_t s = std::max<std::size_t>(1, config_.shards_per_proc);
  const std::size_t lo = group * s;
  const std::size_t hi = std::min(config_.shape.n_procs, lo + s);

  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure: pid < 0)

  // Child: keep only our own shard range's listeners; drop every other
  // inherited fd — the sibling listeners on the first spawn, and the
  // parent's control connections on the respawn path (they belong to the
  // driver).
  for (std::size_t q = 0; q < listen_fds_.size(); ++q) {
    if ((q < lo || q >= hi) && listen_fds_[q] >= 0) ::close(listen_fds_[q]);
  }
  for (ControlClient& client : controls_) client.close();

  if (hi - lo == 1) {
    ProcessNode node(node_config_of(lo));
    node.run();
  } else {
    ShardHostConfig host_config;
    for (std::size_t p = lo; p < hi; ++p) {
      host_config.shards.push_back(node_config_of(p));
    }
    ShardHost host(std::move(host_config));
    host.run();
  }
  ::_exit(0);  // no atexit / leak sweep of the inherited address space
}

bool ProcessCluster::spawn() {
  const std::size_t n = config_.shape.n_procs;
  peers_.assign(n, {});
  listen_fds_.assign(n, -1);

  // Node p listens on "@optcm-<driver pid>-<cluster seq>-<p>"; the seq counts
  // this driver's spawns, so clusters in one process never share a name.
  static std::atomic<std::uint64_t> cluster_seq{0};
  const std::string prefix = "@optcm-" + std::to_string(::getpid()) + "-" +
                             std::to_string(cluster_seq++) + "-";
  for (std::size_t p = 0; p < n; ++p) {
    peers_[p] = prefix + std::to_string(p);
    listen_fds_[p] = net::listen_on(addr_of(static_cast<ProcessId>(p)));
    if (listen_fds_[p] < 0) {
      teardown();
      return false;
    }
  }

  const std::size_t s = std::max<std::size_t>(1, config_.shards_per_proc);
  const std::size_t n_children = (n + s - 1) / s;
  pids_.assign(n_children, -1);
  for (std::size_t g = 0; g < n_children; ++g) {
    const pid_t pid = spawn_child(g);
    if (pid < 0) {
      teardown();
      return false;
    }
    pids_[g] = pid;
  }
  // Parent: the children own the listeners now.
  for (int& fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  controls_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (!controls_[p].connect(addr_of(static_cast<ProcessId>(p)),
                              config_.control_timeout_ms)) {
      teardown();
      return false;
    }
  }
  spawned_ = true;
  return true;
}

bool ProcessCluster::wait_ready(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool all = true;
    for (std::size_t p = 0; p < controls_.size(); ++p) {
      ControlMessage ping;
      ping.op = ControlOp::kPing;
      const auto rep =
          call_node(static_cast<ProcessId>(p), ping, /*idempotent=*/true);
      if (!rep || rep->op != ControlOp::kPong) return false;
      all = all && rep->flag;
    }
    if (all) return true;
    if (ms_left(deadline) == 0) return false;
    sleep_ms(2);
  }
}

bool ProcessCluster::run(const std::vector<Script>& scripts,
                         std::uint64_t time_scale) {
  if (scripts.size() != controls_.size()) return false;
  for (std::size_t p = 0; p < controls_.size(); ++p) {
    if (!run_node(static_cast<ProcessId>(p), scripts[p], time_scale))
      return false;
  }
  return true;
}

bool ProcessCluster::run_node(ProcessId node, const Script& script,
                              std::uint64_t time_scale) {
  if (node >= controls_.size()) return false;
  ControlMessage req;
  req.op = ControlOp::kRun;
  req.script = script;
  req.time_scale = time_scale;
  // Not idempotent: a second kRun after a lost ack would be rejected.
  const auto rep = call_node(node, req, /*idempotent=*/false);
  return rep && rep->op == ControlOp::kAck;
}

bool ProcessCluster::wait_done(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool all = true;
    for (std::size_t p = 0; p < controls_.size(); ++p) {
      ControlMessage query;
      query.op = ControlOp::kQueryDone;
      const auto rep =
          call_node(static_cast<ProcessId>(p), query, /*idempotent=*/true);
      if (!rep || rep->op != ControlOp::kDoneReply) return false;
      all = all && rep->flag;
    }
    if (all) return true;
    if (ms_left(deadline) == 0) return false;
    sleep_ms(5);
  }
}

bool ProcessCluster::wait_quiescent(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    bool all = true;
    for (std::size_t p = 0; p < controls_.size(); ++p) {
      ControlMessage query;
      query.op = ControlOp::kQueryQuiescent;
      const auto rep =
          call_node(static_cast<ProcessId>(p), query, /*idempotent=*/true);
      if (!rep || rep->op != ControlOp::kDoneReply) return false;
      all = all && rep->flag;
    }
    if (all) return true;
    if (ms_left(deadline) == 0) return false;
    sleep_ms(5);
  }
}

bool ProcessCluster::kill_connection(ProcessId node, ProcessId peer) {
  if (node >= controls_.size()) return false;
  ControlMessage req;
  req.op = ControlOp::kKillConn;
  req.peer = peer;
  // Idempotent: killing an already-down connection is an acknowledged no-op.
  const auto rep = call_node(node, req, /*idempotent=*/true);
  return rep && rep->op == ControlOp::kAck;
}

bool ProcessCluster::set_faults(ProcessId node, const NetFaultPlan& plan) {
  if (node >= controls_.size()) return false;
  ControlMessage req;
  req.op = ControlOp::kSetFaults;
  req.faults = plan;
  // Idempotent: installing the same plan twice is the same plan.
  const auto rep = call_node(node, req, /*idempotent=*/true);
  return rep && rep->op == ControlOp::kAck;
}

bool ProcessCluster::kill_process(ProcessId node) {
  // A shard group shares one OS process; SIGKILL would take out every
  // co-located shard, which is not the single-node crash being modelled.
  if (config_.shards_per_proc > 1) return false;
  if (node >= pids_.size() || pids_[node] <= 0) return false;
  if (::kill(pids_[node], SIGKILL) != 0) return false;
  int status = 0;
  while (::waitpid(pids_[node], &status, 0) < 0 && errno == EINTR) {
  }
  pids_[node] = -1;
  controls_[node].close();  // the peer end died with the process
  return true;
}

bool ProcessCluster::respawn_process(ProcessId node) {
  if (config_.shards_per_proc > 1) return false;
  if (node >= pids_.size() || pids_[node] > 0) return false;
  // Rebind the original name; the peers' transports are already redialing
  // it.  An abstract name is freed when its last fd closes: the parent closed
  // its copy after the fork, and kill_process() reaped the child, so the bind
  // needs no SO_REUSEADDR equivalent.
  listen_fds_[node] = net::listen_on(addr_of(node));
  if (listen_fds_[node] < 0) return false;
  const pid_t pid = spawn_child(node);
  ::close(listen_fds_[node]);
  listen_fds_[node] = -1;
  if (pid < 0) return false;
  pids_[node] = pid;
  return controls_[node].connect(addr_of(node), config_.control_timeout_ms);
}

std::optional<ImportedRun> ProcessCluster::fetch_log(ProcessId node) {
  if (node >= controls_.size()) return std::nullopt;
  RunRecorder log(config_.shape.n_procs, config_.shape.n_vars);
  ControlMessage req;
  req.op = ControlOp::kFetchLog;
  for (;;) {
    const auto rep = call_node(node, req, /*idempotent=*/true);
    if (!rep || rep->op != ControlOp::kLogReply ||
        !replay_wal_record(rep->bytes, log, nullptr, nullptr)) {
      return std::nullopt;
    }
    if (!rep->flag) return std::move(log).take_run();
    if (rep->cursor <= req.cursor) return std::nullopt;  // no progress
    req.cursor = rep->cursor;
  }
}

std::optional<NodeNetStats> ProcessCluster::fetch_stats(ProcessId node) {
  if (node >= controls_.size()) return std::nullopt;
  ControlMessage req;
  req.op = ControlOp::kFetchStats;
  const auto rep = call_node(node, req, /*idempotent=*/true);
  if (!rep || rep->op != ControlOp::kStatsReply) return std::nullopt;
  return rep->stats;
}

bool ProcessCluster::shutdown(int timeout_ms) {
  bool ok = true;
  for (auto& client : controls_) {
    if (!client.connected()) continue;
    ControlMessage req;
    req.op = ControlOp::kShutdown;
    const auto rep = client.call(req, config_.control_timeout_ms);
    ok = ok && rep && rep->op == ControlOp::kAck;
    client.close();
  }
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (pid_t& pid : pids_) {
    while (pid > 0) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid = -1;
        break;
      }
      if (r < 0) {  // already reaped / never existed
        pid = -1;
        break;
      }
      if (ms_left(deadline) == 0) {
        (void)::kill(pid, SIGKILL);
        (void)::waitpid(pid, &status, 0);
        pid = -1;
        ok = false;
        break;
      }
      sleep_ms(5);
    }
  }
  spawned_ = false;
  return ok;
}

void ProcessCluster::teardown() {
  for (auto& client : controls_) client.close();
  for (int& fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  for (pid_t& pid : pids_) {
    if (pid > 0) {
      (void)::kill(pid, SIGKILL);
      int status = 0;
      (void)::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
  spawned_ = false;
}

}  // namespace dsm
