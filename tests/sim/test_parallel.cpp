#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/assert.h"

namespace lad {
namespace {

TEST(ParallelForItems, RunsEachItemOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for_items(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForItems, EmptyIsNoop) {
  bool called = false;
  parallel_for_items(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForItems, SerialModeMatchesParallelResults) {
  // Items write into independent slots; the final state must be identical
  // regardless of thread count (this is the determinism contract).
  auto run = [](int threads) {
    std::vector<double> out(200);
    parallel_for_items(
        out.size(),
        [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
        threads);
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(2), run(0));
}

TEST(ParallelForItems, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_items(64,
                         [](std::size_t i) {
                           if (i == 13) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(ParallelForItems, DefaultParallelismPositive) {
  EXPECT_GE(default_parallelism(), 1);
}

TEST(ParallelForItems, NegativeMaxThreadsIsANamedError) {
  // A negative count used to silently mean "use all cores"; it must be
  // rejected by name so thread-math bugs in callers surface immediately.
  bool called = false;
  EXPECT_THROW(
      parallel_for_items(8, [&](std::size_t) { called = true; }, -1),
      AssertionError);
  EXPECT_THROW(
      parallel_for_items(8, [&](std::size_t) { called = true; }, -128),
      AssertionError);
  EXPECT_FALSE(called);
}

TEST(ParallelForItems, ResolveThreadsKeepsPositiveCountsAndNamesNegatives) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(7), 7);
  EXPECT_EQ(resolve_threads(0), default_parallelism());
  EXPECT_THROW(resolve_threads(-1), AssertionError);
}

class LadThreadsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // lad-lint: allow(raw-getenv) -- save/restore must see the raw value
    const char* old = std::getenv("LAD_THREADS");
    if (old != nullptr) saved_ = old;
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("LAD_THREADS");
    } else {
      setenv("LAD_THREADS", saved_.c_str(), 1);
    }
  }
  std::string saved_;
};

TEST_F(LadThreadsEnvTest, PinOverridesDefaultParallelism) {
  setenv("LAD_THREADS", "3", 1);
  EXPECT_EQ(default_parallelism(), 3);
  setenv("LAD_THREADS", "1", 1);
  EXPECT_EQ(default_parallelism(), 1);
}

TEST_F(LadThreadsEnvTest, EmptyPinFallsBackToHardware) {
  setenv("LAD_THREADS", "", 1);
  EXPECT_GE(default_parallelism(), 1);
}

TEST_F(LadThreadsEnvTest, GarbagePinIsANamedErrorNotAllCores) {
  for (const char* bad : {"0", "-2", "four", "2x", "1e9", "99999999"}) {
    setenv("LAD_THREADS", bad, 1);
    EXPECT_THROW(default_parallelism(), AssertionError) << bad;
  }
}

TEST_F(LadThreadsEnvTest, PinnedRunMatchesUnpinnedResults) {
  auto run = [] {
    std::vector<double> out(64);
    parallel_for_items(out.size(),
                       [&](std::size_t i) { out[i] = static_cast<double>(i); });
    return out;
  };
  setenv("LAD_THREADS", "2", 1);
  const std::vector<double> pinned = run();
  unsetenv("LAD_THREADS");
  EXPECT_EQ(pinned, run());
}

}  // namespace
}  // namespace lad
