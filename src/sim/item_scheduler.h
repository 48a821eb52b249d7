// The scenario engine's work-item executor: each kind's run_* builder
// schedules one closure per shard-owned work item; run() executes up to
// `jobs` of them concurrently, then splices each item's buffered rows into
// the shared result tables in schedule order — so every table CSV is
// byte-identical to the sequential run no matter how items interleave.
// jobs = 1 runs the closures serially in schedule order, reproducing the
// historical execution (including the order caches fill in) exactly.
//
// Exception contract: a closure that throws does not abort the batch.
// Rows from every item that completed still land, in schedule order; the
// first error (by schedule order, not wall clock — deterministic at any
// jobs count) is parked and rethrown exactly once at the end of run().
#pragma once

#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "sim/parallel.h"
#include "sim/scenario.h"
#include "util/csv.h"

namespace lad {

/// Where one work item's closure emits its rows: a private fragment table
/// per result table, spliced back by the scheduler.  util/csv.h stores
/// cells pre-formatted, so the splice is byte-exact.
class ItemSink {
 public:
  explicit ItemSink(std::vector<Table>& fragments) : fragments_(&fragments) {}

  /// Starts a row destined for result table `table` (index in the
  /// ScenarioResult's emission-order table list).
  Table& row(std::size_t table) { return (*fragments_)[table].new_row(); }

 private:
  std::vector<Table>* fragments_;
};

class ItemScheduler {
 public:
  ItemScheduler(ScenarioResult& result, int jobs)
      : result_(&result), jobs_(jobs) {}

  /// Schedules `work` for `item`; runs at run() time.  Closures must be
  /// independent across items (keyed rng, latched caches) and emit rows
  /// only through their sink.
  void add(long long item, std::function<void(ItemSink&)> work) {
    Entry entry;
    entry.item = item;
    entry.work = std::move(work);
    entry.fragments.reserve(result_->tables.size());
    for (const ResultTable& t : result_->tables) {
      entry.fragments.emplace_back(t.table.columns());
    }
    entries_.push_back(std::move(entry));
  }

  void run() {
    // Each closure catches into its own entry: an exception must not
    // abort the other items' work.
    parallel_for_items(
        entries_.size(),
        [&](std::size_t i) {
          try {
            ItemSink sink(entries_[i].fragments);
            entries_[i].work(sink);
          } catch (...) {
            entries_[i].error = std::current_exception();
          }
        },
        jobs_);
    std::exception_ptr first_error;
    for (const Entry& entry : entries_) {
      if (entry.error) {
        if (!first_error) first_error = entry.error;
        continue;  // a failed item contributes no rows
      }
      for (std::size_t t = 0; t < entry.fragments.size(); ++t) {
        const Table& fragment = entry.fragments[t];
        ResultTable& target = result_->tables[t];
        for (std::size_t r = 0; r < fragment.num_rows(); ++r) {
          // Each row is tagged with the work item that produced it.
          target.row_items.push_back(entry.item);
          Table& row = target.table.new_row();
          for (const std::string& cell : fragment.row(r)) row.add(cell);
        }
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  struct Entry {
    long long item = 0;
    std::function<void(ItemSink&)> work;
    std::vector<Table> fragments;  ///< parallel to the result's tables
    std::exception_ptr error;      ///< set when the closure threw
  };

  ScenarioResult* result_;
  int jobs_;
  std::vector<Entry> entries_;
};

}  // namespace lad
