// collab_editor — a collaborative document over causal memory.
//
// Three editors work concurrently on a shared document: sections are
// variables; each editor repeatedly reads a section, then writes an updated
// revision of it (read-modify-write on its own replica — exactly the access
// pattern that builds long ↦co chains).  A reviewer replica watches the
// document and attaches review marks to the revisions it read.
//
// The demo's guarantee, printed at the end: every review mark is attached to
// a revision the reviewer actually saw, and every replica's view passes the
// causal-consistency checker even though replicas may disagree on
// concurrent edits (causal memory does not impose a total order).
//
// Build & run:  ./build/examples/collab_editor

#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "dsm/history/checker.h"
#include "dsm/net/causal_memory.h"

namespace {

// Revision encoding: editor * 1'000'000 + pass * 1'000 + section.
dsm::Value revision(int editor, int pass, int section) {
  return editor * 1'000'000 + pass * 1'000 + section;
}

}  // namespace

int main() {
  using namespace dsm;
  constexpr int kEditors = 3;
  constexpr int kSections = 4;
  constexpr int kPasses = 5;
  const ProcessId reviewer = kEditors;  // replica 3

  CausalMemory::Options options;
  options.replicas = kEditors + 1;
  options.capacity = kSections + kEditors * kSections + 4;
  options.max_jitter_us = 300;  // surface interleavings
  CausalMemory mem(options);

  const auto section_name = [](int s) { return "section." + std::to_string(s); };
  const auto mark_name = [](int e, int s) {
    return "review." + std::to_string(e) + "." + std::to_string(s);
  };

  // Editors: read a section, then write the next revision (causal chain:
  // each revision causally follows whatever the editor last read there).
  std::vector<std::thread> editors;
  for (int e = 0; e < kEditors; ++e) {
    editors.emplace_back([&, e] {
      auto session = mem.session(static_cast<ProcessId>(e));
      for (int pass = 0; pass < kPasses; ++pass) {
        for (int s = 0; s < kSections; ++s) {
          (void)session.read(section_name(s));
          session.write(section_name(s), revision(e, pass, s));
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }

  // Reviewer: tag whatever revision it currently sees in each section.
  std::thread review([&] {
    auto session = mem.session(reviewer);
    for (int round = 0; round < 10; ++round) {
      for (int s = 0; s < kSections; ++s) {
        const auto seen = session.read_tagged(section_name(s));
        if (seen.writer.valid()) {
          session.write(mark_name(round % kEditors, s), seen.value);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  for (auto& t : editors) t.join();
  review.join();
  const bool settled = mem.sync();

  // Print the final document as each replica sees it.
  for (ProcessId r = 0; r <= kEditors; ++r) {
    auto session = mem.session(r);
    std::printf("replica %u sees:", r);
    for (int s = 0; s < kSections; ++s) {
      std::printf("  s%d=%" PRId64, s, session.read(section_name(s)));
    }
    std::printf("\n");
  }

  const auto verdict = ConsistencyChecker::check(mem.recorder().history());
  std::printf(
      "\nsettled=%s  ops=%zu  causally consistent=%s (%zu reads verified)\n",
      settled ? "yes" : "no", mem.recorder().history().size(),
      verdict.consistent() ? "yes" : "NO", verdict.reads_checked);
  if (!verdict.consistent()) {
    std::printf("first violation: %s\n", verdict.violations[0].detail.c_str());
  }
  return verdict.consistent() && settled ? 0 : 1;
}
