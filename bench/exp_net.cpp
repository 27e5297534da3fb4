// exp_net — socket-tier microbenchmarks: frame round-trip latency and
// one-way throughput of two TcpTransports on one NetLoop, once per stream
// family: TCP loopback ("127.0.0.1:0") and abstract AF_UNIX ("@name", what a
// forked ProcessCluster binds).
//
// Single-threaded on purpose: both endpoints share the loop, so a ping-pong
// round trip measures the full framed path (encode → writev → poll → read →
// reassemble → deliver) twice with zero scheduler noise, and the numbers are
// comparable run over run.  This is the latency floor under the
// multi-process cluster (which adds fork/IPC scheduling on top).
//
// Measured: p50/p99 round-trip time per payload size, and drained one-way
// messages per second.  `--bench-json results/BENCH_net.json` is the
// checked-in baseline workflow (tools/regen_results.sh).

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "dsm/net/ring_mesh.h"
#include "dsm/net/socket.h"
#include "dsm/net/tcp_transport.h"

namespace dsm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Echoes every frame straight back to its sender.
struct EchoSink final : MessageSink {
  TcpTransport* transport = nullptr;
  ProcessId self = 0;
  void deliver(ProcessId from, std::span<const std::uint8_t> bytes) override {
    transport->send(self, from,
                    make_payload({bytes.begin(), bytes.end()}));
  }
};

struct CountingSink final : MessageSink {
  std::size_t received = 0;
  void deliver(ProcessId, std::span<const std::uint8_t>) override {
    ++received;
  }
};

/// The two stream families a table row names, by their listen address.
constexpr const char* kFamilies[] = {"127.0.0.1:0", "@name"};

/// Two transports, one loop, pre-bound listeners.  `listen` is "127.0.0.1:0"
/// (kernel-assigned ports) or "@name", which each side makes unique with
/// the pid, a pair count and its own index.
struct Pair {
  NetLoop loop;
  std::unique_ptr<TcpTransport> a;  ///< process 0 (acceptor)
  std::unique_ptr<TcpTransport> b;  ///< process 1 (dialer)

  bool connect(std::string_view listen, MessageSink& sink_a,
               MessageSink& sink_b) {
    static int pairs = 0;
    std::vector<std::string> peers(2);
    int fds[2];
    for (std::size_t p = 0; p < 2; ++p) {
      std::string text(listen);
      if (text.front() == '@') {
        text += "-exp-net-" + std::to_string(::getpid()) + "-" +
                std::to_string(pairs) + "-" + std::to_string(p);
      }
      fds[p] = net::listen_on(*net::parse_addr(text));
      if (fds[p] < 0) return false;
      peers[p] = text.front() == '@'
                     ? text
                     : "127.0.0.1:" + std::to_string(net::local_port(fds[p]));
    }
    ++pairs;
    for (std::size_t p = 0; p < 2; ++p) {
      TcpTransportConfig config;
      config.self = static_cast<ProcessId>(p);
      config.peers = peers;
      config.listen_fd = fds[p];
      auto t = std::make_unique<TcpTransport>(loop, std::move(config));
      (p == 0 ? a : b) = std::move(t);
    }
    a->attach(0, sink_a);
    b->attach(1, sink_b);
    a->start();
    b->start();
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (!(a->fully_connected() && b->fully_connected())) {
      if (Clock::now() > deadline) return false;
      loop.poll_once(sim_ms(1));
    }
    return true;
  }
};

}  // namespace
}  // namespace dsm::bench

int main(int argc, char** argv) {
  if (!dsm::bench::init_bench_json(argc, argv)) return 2;
  using namespace dsm;
  using namespace dsm::bench;

  // ---- ping-pong round-trip latency per payload size -----------------------
  Table rtt({"family", "payload (B)", "rounds", "rtt p50 (us)",
             "rtt p99 (us)", "rtt mean (us)", "round trips/s"});
  for (const char* family : kFamilies)
  for (const std::size_t payload_size : {16u, 256u, 4096u}) {
    CountingSink pongs;
    EchoSink echo;
    Pair pair;
    if (!pair.connect(family, pongs, echo)) {
      std::fprintf(stderr, "loopback pair failed to connect\n");
      return 1;
    }
    echo.transport = pair.b.get();
    echo.self = 1;

    const auto ping = make_payload(
        std::vector<std::uint8_t>(payload_size, 0xAB));
    constexpr std::size_t kWarmup = 200;
    constexpr std::size_t kRounds = 2000;
    std::vector<double> samples;
    samples.reserve(kRounds);
    const auto bench_start = Clock::now();
    for (std::size_t i = 0; i < kWarmup + kRounds; ++i) {
      const std::size_t want = pongs.received + 1;
      const auto t0 = Clock::now();
      pair.a->send(0, 1, ping);
      while (pongs.received < want) pair.loop.poll_once(sim_ms(1));
      if (i >= kWarmup) samples.push_back(us_between(t0, Clock::now()));
    }
    const double total_s =
        us_between(bench_start, Clock::now()) / 1e6;
    std::sort(samples.begin(), samples.end());
    double sum = 0;
    for (const double s : samples) sum += s;
    rtt.add(family, payload_size, kRounds, samples[samples.size() / 2],
            samples[samples.size() * 99 / 100],
            sum / static_cast<double>(samples.size()),
            static_cast<double>(kWarmup + kRounds) / total_s);
  }
  emit("loopback frame round-trip (2 transports, 1 loop)", rtt);

  // ---- one-way drained throughput ------------------------------------------
  Table tput(
      {"family", "payload (B)", "messages", "wall (ms)", "msgs/s", "MB/s"});
  for (const char* family : kFamilies)
  for (const std::size_t payload_size : {16u, 256u, 4096u}) {
    CountingSink rx;
    CountingSink rx_unused;
    Pair pair;
    if (!pair.connect(family, rx_unused, rx)) {
      std::fprintf(stderr, "loopback pair failed to connect\n");
      return 1;
    }
    const auto msg = make_payload(
        std::vector<std::uint8_t>(payload_size, 0xCD));
    constexpr std::size_t kMessages = 20'000;
    const auto t0 = Clock::now();
    // Send in bursts so the out-queue drains through writev fan-out instead
    // of unbounded buffering.
    std::size_t sent = 0;
    while (rx.received < kMessages) {
      while (sent < kMessages && sent - rx.received < 512) {
        pair.a->send(0, 1, msg);
        ++sent;
      }
      pair.loop.poll_once(sim_ms(1));
    }
    const double wall_ms = us_between(t0, Clock::now()) / 1e3;
    const double msgs_per_s =
        static_cast<double>(kMessages) / (wall_ms / 1e3);
    tput.add(family, payload_size, kMessages, wall_ms, msgs_per_s,
             msgs_per_s * static_cast<double>(payload_size) /
                 (1024.0 * 1024.0));
  }
  emit("loopback one-way throughput (drained)", tput);

  // ---- shard ring mesh one-way throughput ----------------------------------
  // The co-located fast path (dsm/net/ring_mesh.h): refcounted payloads
  // posted onto the SPSC ring, drained into a sink — no kernel in the data
  // path (while the consumer keeps up the doorbell is unarmed and post()
  // never syscalls).  Same single-threaded burst/drain harness as the TCP
  // cell above, so the two numbers compare the per-message transport cost
  // directly without scheduler noise (on a 1-CPU box a two-thread handoff
  // measures context switching, not the ring).  This is the transport floor
  // under `optcm drive --shards-per-proc`.
  Table ring({"payload (B)", "messages", "wall (ms)", "msgs/s", "M msgs/s"});
  for (const std::size_t payload_size : {16u, 256u}) {
    RingMesh mesh(0, 2);
    CountingSink rx;
    const auto msg =
        make_payload(std::vector<std::uint8_t>(payload_size, 0xEF));
    constexpr std::size_t kMessages = 2'000'000;
    const auto t0 = Clock::now();
    std::size_t sent = 0;
    while (rx.received < kMessages) {
      while (sent < kMessages && sent - rx.received < 512) {
        // A full ring is a datagram drop in the real stack; the burst cap
        // keeps us under capacity so every post lands.
        if (!mesh.post(0, 1, msg)) break;
        ++sent;
      }
      (void)mesh.drain(1, rx);
    }
    const double wall_ms = us_between(t0, Clock::now()) / 1e3;
    const double msgs_per_s = static_cast<double>(kMessages) / (wall_ms / 1e3);
    ring.add(payload_size, kMessages, wall_ms, msgs_per_s, msgs_per_s / 1e6);
  }
  emit("shard ring mesh one-way throughput (SPSC burst/drain)", ring);

  return finish_bench_json("exp_net") ? 0 : 1;
}
