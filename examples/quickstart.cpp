// quickstart — the 60-second tour of the public API.
//
// Three replicas of a causally consistent shared memory (OptP underneath),
// three sessions writing and reading named variables.  Demonstrates:
//   * wait-free local reads/writes,
//   * read-your-own-writes,
//   * causal visibility: whoever sees an effect sees its causes,
//   * run verification: the recorded history passes the independent
//     causal-consistency checker.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "dsm/history/checker.h"
#include "dsm/net/causal_memory.h"

int main() {
  using namespace dsm;

  CausalMemory::Options options;
  options.replicas = 3;
  options.capacity = 16;
  options.protocol = ProtocolKind::kOptP;  // the paper's protocol
  CausalMemory mem(options);

  auto alice = mem.session(0);
  auto bob = mem.session(1);
  auto carol = mem.session(2);

  // Alice drafts; she reads her own write immediately (wait-free).
  alice.write("doc.title", 2024);
  std::printf("alice reads her own title:   %lld\n",
              static_cast<long long>(alice.read("doc.title")));

  // Propagate, then Bob reacts to what he read — a causal chain.
  mem.sync();
  std::printf("bob sees the title:          %lld\n",
              static_cast<long long>(bob.read("doc.title")));
  bob.write("doc.review", 1);  // causally AFTER alice's title

  mem.sync();
  // Carol sees the review; causal consistency guarantees she also sees the
  // title the review was written against.
  std::printf("carol sees review:           %lld\n",
              static_cast<long long>(carol.read("doc.review")));
  std::printf("carol must see the title:    %lld\n",
              static_cast<long long>(carol.read("doc.title")));

  // Every run is verifiable: recompute ↦co from the recorded history and
  // check every read against Definition 1 of the paper.
  const auto verdict = ConsistencyChecker::check(mem.recorder().history());
  std::printf("history causally consistent: %s (%zu reads checked)\n",
              verdict.consistent() ? "yes" : "NO",
              verdict.reads_checked);
  return verdict.consistent() ? 0 : 1;
}
