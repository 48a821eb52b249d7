// ItemScheduler splice-order and error-parking contract, and the
// LatchedCache exception semantics the concurrent work items rely on.
#include "sim/item_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/latched_cache.h"
#include "sim/scenario.h"
#include "util/assert.h"
#include "util/csv.h"

namespace lad {
namespace {

ScenarioResult two_table_result() {
  ScenarioResult result{"sched_test", {}};
  result.tables.push_back({"a", Table({"item", "v"}), {}});
  result.tables.push_back({"b", Table({"item", "w"}), {}});
  return result;
}

std::vector<std::string> column(const Table& t, std::size_t col) {
  std::vector<std::string> out;
  for (std::size_t r = 0; r < t.num_rows(); ++r) out.push_back(t.row(r)[col]);
  return out;
}

TEST(ItemScheduler, SplicesInScheduleOrderWithMoreJobsThanItems) {
  // jobs far above the item count: every item gets its own slot at once,
  // so completion order is arbitrary - rows must still land in schedule
  // order, byte-identical to the jobs=1 run.
  for (int jobs : {1, 8}) {
    ScenarioResult result = two_table_result();
    ItemScheduler sched(result, jobs);
    for (long long item : {0, 1, 2}) {
      sched.add(item, [item](ItemSink& sink) {
        // Built with += rather than `"a" + std::to_string(...)`: GCC 12's
        // -Wrestrict false-fires on char* + std::string&& chains inlined
        // into string::insert (PR105651), and the tree builds -Werror.
        std::string a = "a";
        a += std::to_string(item);
        std::string b = "b";
        b += std::to_string(item);
        sink.row(0).add(item).add(a);
        sink.row(1).add(item).add(b);
      });
    }
    sched.run();
    EXPECT_EQ(column(result.tables[0].table, 1),
              (std::vector<std::string>{"a0", "a1", "a2"}))
        << "jobs=" << jobs;
    EXPECT_EQ(column(result.tables[1].table, 1),
              (std::vector<std::string>{"b0", "b1", "b2"}))
        << "jobs=" << jobs;
    EXPECT_EQ(result.tables[0].row_items, (std::vector<long long>{0, 1, 2}));
    EXPECT_EQ(result.tables[1].row_items, (std::vector<long long>{0, 1, 2}));
  }
}

TEST(ItemScheduler, ThrowingItemParksErrorAndKeepsCompletedRows) {
  for (int jobs : {1, 4}) {
    ScenarioResult result = two_table_result();
    ItemScheduler sched(result, jobs);
    sched.add(0, [](ItemSink& sink) { sink.row(0).add(0).add("ok0"); });
    sched.add(1, [](ItemSink& sink) {
      // Throws mid-fragment: a row already started must not leak into the
      // shared tables.
      sink.row(0).add(1);
      throw std::runtime_error("item 1 exploded");
    });
    sched.add(2, [](ItemSink& sink) { sink.row(0).add(2).add("ok2"); });

    try {
      sched.run();
      FAIL() << "expected the parked error to be rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 1 exploded");
    }
    // Items 0 and 2 completed; their rows land in schedule order, the
    // failed item contributes nothing.
    EXPECT_EQ(column(result.tables[0].table, 1),
              (std::vector<std::string>{"ok0", "ok2"}))
        << "jobs=" << jobs;
    EXPECT_EQ(result.tables[0].row_items, (std::vector<long long>{0, 2}));
  }
}

TEST(ItemScheduler, FirstErrorByScheduleOrderWinsRegardlessOfTiming) {
  ScenarioResult result = two_table_result();
  ItemScheduler sched(result, 4);
  // Item 2's failure is the one that must surface even if item 5 fails
  // first on the wall clock (deterministic at any jobs count).
  for (long long item : {0, 1, 2, 3, 4, 5}) {
    sched.add(item, [item](ItemSink& sink) {
      if (item == 2) throw std::runtime_error("first");
      if (item == 5) throw std::runtime_error("later");
      sink.row(0).add(item).add("ok");
    });
  }
  try {
    sched.run();
    FAIL() << "expected an error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(result.tables[0].row_items, (std::vector<long long>{0, 1, 3, 4}));
}

TEST(LatchedCache, BuildsOncePerKey) {
  LatchedCache<int> cache;
  std::atomic<int> builds{0};
  for (int i = 0; i < 3; ++i) {
    const int& v = cache.get("k", [&] {
      ++builds;
      return std::make_unique<int>(42);
    });
    EXPECT_EQ(v, 42);
  }
  EXPECT_EQ(builds.load(), 1);
}

TEST(LatchedCache, ThrowingBuilderRethrowsToEveryWaiterAndRebuilds) {
  LatchedCache<int> cache;
  std::atomic<int> builds{0};
  std::atomic<int> failures{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        cache.get("k", [&]() -> std::unique_ptr<int> {
          ++builds;
          throw std::runtime_error("builder failed");
        });
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "builder failed");
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Every caller saw the failure - whether it waited on the in-flight
  // builder's latch or re-ran the builder after the entry was unpublished.
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_GE(builds.load(), 1);

  // The key is rebuildable: the failure did not poison it.
  const int before = builds.load();
  const int& v = cache.get("k", [&] {
    ++builds;
    return std::make_unique<int>(7);
  });
  EXPECT_EQ(v, 7);
  EXPECT_EQ(builds.load(), before + 1);

  // And a success is still cached as usual.
  const int& again = cache.get("k", [&]() -> std::unique_ptr<int> {
    ADD_FAILURE() << "builder must not re-run after a success";
    return nullptr;
  });
  EXPECT_EQ(again, 7);
}

TEST(LatchedCache, WaitersBlockedOnThrowingBuilderAllRethrow) {
  // Deterministic version of the race: the builder holds the latch until
  // every waiter has queued up, then throws - all of them must rethrow.
  LatchedCache<int> cache;
  std::atomic<bool> entered{false};
  std::atomic<int> waiting{0};
  std::atomic<int> failures{0};
  constexpr int kWaiters = 3;

  std::thread builder([&] {
    try {
      cache.get("k", [&]() -> std::unique_ptr<int> {
        entered = true;
        while (waiting.load() < kWaiters) std::this_thread::yield();
        throw AssertionError("deterministic failure");
      });
    } catch (const AssertionError&) {
      ++failures;
    }
  });
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      // Start only once the builder runs inside get(), so the entry is
      // published and this waiter can never become the builder itself.
      // Being blocked inside get() is not observable from outside, so
      // announce, then call: a waiter that reaches get() after the
      // builder threw finds the key unpublished, rebuilds and succeeds.
      while (!entered.load()) std::this_thread::yield();
      ++waiting;
      try {
        const int& v = cache.get("k", [] { return std::make_unique<int>(9); });
        EXPECT_EQ(v, 9);
      } catch (const AssertionError&) {
        ++failures;
      }
    });
  }
  builder.join();
  for (std::thread& th : waiters) th.join();
  EXPECT_GE(failures.load(), 1);  // the builder itself always rethrows
  // Whatever mix of rethrow/rebuild the race produced, the key must end
  // in a usable state.
  const int& v = cache.get("k", [] { return std::make_unique<int>(11); });
  EXPECT_TRUE(v == 9 || v == 11);
}

}  // namespace
}  // namespace lad
