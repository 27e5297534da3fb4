// The register checker at scale: a 10⁶-op, 3-process history is checked in
// time and memory linear in ops, and one overwritten read injected at its
// very end is still found.  Timing and memory bounds hold for optimized,
// uninstrumented builds only; elsewhere the test skips.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/history/checker.h"

namespace dsm {
namespace {

#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/// Peak resident set of this process, in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

TEST(CheckerScale, MillionOpHistoryCheckedInLinearTimeAndMemory) {
  if (!kOptimizedBuild) GTEST_SKIP() << "bounds apply to optimized builds";
  constexpr std::size_t kProcs = 3;
  constexpr std::size_t kVars = 8;
  constexpr std::size_t kOps = 1'000'000;

  // A sequential run: every read returns the latest write on its variable,
  // so the history is causally consistent.  Reads cross processes, so ↦co
  // links all three local histories throughout.
  GlobalHistory h(kProcs, kVars);
  Rng rng(1'000'000);
  std::vector<std::pair<WriteId, Value>> last(kVars, {kNoWrite, kBottom});
  for (std::size_t i = 0; i + 4 < kOps; ++i) {
    const auto p = static_cast<ProcessId>(i % kProcs);
    const auto x = static_cast<VarId>(rng.below(kVars));
    if (last[x].first.valid() && rng.chance(0.5)) {
      h.add_read(p, x, last[x].second, last[x].first);
    } else {
      const auto v = static_cast<Value>(i);
      last[x] = {h.add_write(p, x, v), v};
    }
  }
  // The injected violation: p2 reads w1(x1) after reading a later write of
  // p1 on x1, so that write lies between the cited one and the read.
  const WriteId old_write = h.add_write(0, 0, 1);
  const WriteId new_write = h.add_write(0, 0, 2);
  h.add_read(1, 0, 2, new_write);
  const OpRef stale = h.add_read(1, 0, 1, old_write);
  ASSERT_EQ(h.size(), kOps);

  const auto start = std::chrono::steady_clock::now();
  const CheckResult result = ConsistencyChecker::check(h);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations[0].kind, ViolationKind::kOverwrittenRead);
  EXPECT_EQ(result.violations[0].read, stale);
  EXPECT_EQ(result.violations[0].write, *h.find_write(new_write));
  EXPECT_LT(elapsed.count(), 10.0);
  EXPECT_LT(peak_rss_mib(), 256.0);
  RecordProperty("check_seconds", std::to_string(elapsed.count()));
  RecordProperty("peak_rss_mib", std::to_string(peak_rss_mib()));
}

}  // namespace
}  // namespace dsm
