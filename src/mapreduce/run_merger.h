// Reduce-side shuffle layer: streaming k-way merge of sorted runs — the
// analogue of Hadoop's reduce-side Merger.
//
// A reduce task collects every run of its partition (from all map tasks,
// in map-task-then-spill order) and feeds them to a RunMerger instead of
// re-sorting the whole partition. The merger holds a min-heap over one
// cursor per run and hands the reducer one contiguous key group at a time.
// It does not bound memory to a group: RunReduceAttempt (job.h) decodes
// every run block of the partition into MergeRuns before the merge starts,
// so an attempt holds all of its partition's typed pairs at once, beside
// the published blocks. Decoding each run lazily behind its cursor is
// ROADMAP direction 2's reduce-side memory work.
//
// Ties (keys equal under the sort comparator) are broken toward the run
// with the lower rank — runs are ranked in map-task-then-spill order, and
// each run is internally in emit order, so tied pairs surface in exactly
// the order the legacy concatenate-then-stable-sort produced. Output is
// byte-identical to the unbounded path.
//
// When a partition has more runs than JobSpec::merge_factor, contiguous
// rank ranges are first collapsed into intermediate runs (Hadoop's
// multi-pass merge under a small io.sort.factor). Every intermediate pass
// re-reads its inputs and re-writes the merged run; that I/O is charged to
// the reduce task's scratch and counted in its metrics.
//
// The merger reads decoded runs that belong to one reduce attempt: the
// attempt decodes each published SortedRun's block (sort_buffer.h) into a
// MergeRun of its own, so the merge may consume the pairs while a retry or
// a backup still finds the published blocks pristine.
//
// Integrity: with JobSpec::verify_integrity the engine re-verifies every
// published block's write-side checksum (SortedRun::checksum) at the
// run-merge read boundary — in RunReduceAttempt, before it decodes the
// blocks. The merger itself therefore only ever sees verified data, and
// intermediate collapsed runs never leave the attempt, so they need no
// checksum of their own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/job_spec.h"
#include "mapreduce/metrics.h"
#include "mapreduce/task_context.h"

namespace fj::mr {

/// One run as a reduce attempt merges it: pairs decoded from a published
/// run block, or merged by an intermediate pass, and owned by the attempt.
/// `bytes` and `on_disk` price reading the run back.
template <typename K, typename V>
struct MergeRun {
  std::vector<std::pair<K, V>> pairs;
  uint64_t bytes = 0;
  bool on_disk = false;
};

template <typename K, typename V>
class RunMerger {
 public:
  using Pair = std::pair<K, V>;

  /// `runs` must be ordered by rank (map task first, then spill index);
  /// empty runs may be included and are skipped. The merger consumes the
  /// runs' pairs (they are moved out as groups stream).
  RunMerger(const SpecOrdering<K, V>* ordering,
            std::vector<MergeRun<K, V>*> runs, size_t merge_factor,
            TaskContext* ctx, TaskMetrics* metrics)
      : ordering_(ordering), merge_factor_(std::max<size_t>(2, merge_factor)),
        ctx_(ctx), metrics_(metrics) {
    for (MergeRun<K, V>* run : runs) {
      if (run != nullptr && !run->pairs.empty()) runs_.push_back(run);
    }
  }

  /// Streams each contiguous key group to `fn` as a span (valid only for
  /// the duration of the call), smallest keys first. `fn` may return void
  /// (consume every group) or bool — returning false stops the merge
  /// early, which the engine's fault layer uses to abort a crashing
  /// reduce attempt mid-stream.
  template <typename Fn>
  void ForEachGroup(Fn fn) {
    auto emit = [&fn](std::span<const Pair> group) -> bool {
      if constexpr (std::is_void_v<
                        std::invoke_result_t<Fn&, std::span<const Pair>>>) {
        fn(group);
        return true;
      } else {
        return fn(group);
      }
    };

    CollapseToSinglePass();
    if (runs_.empty()) return;

    // Reading the surviving runs is the final merge pass.
    for (MergeRun<K, V>* run : runs_) {
      if (run->on_disk) ctx_->scratch().ChargeSpillRead(run->bytes);
    }
    if (runs_.size() > 1) metrics_->merge_passes++;

    InitHeap();
    std::vector<Pair> group;
    while (!heap_.empty()) {
      if (!group.empty() &&
          !ordering_->GroupEqual(group.front().first, TopKey())) {
        if (!emit(std::span<const Pair>(group.data(), group.size()))) return;
        group.clear();
      }
      group.push_back(PopMin());
    }
    if (!group.empty()) {
      emit(std::span<const Pair>(group.data(), group.size()));
    }
  }

 private:
  struct Cursor {
    MergeRun<K, V>* run;
    size_t pos;
    size_t rank;
    const Pair& Current() const { return run->pairs[pos]; }
  };

  // Intermediate passes: while too many runs remain, merge the
  // `merge_factor` lowest-ranked (contiguous, so stability is preserved)
  // into one on-disk run that inherits the lowest rank.
  void CollapseToSinglePass() {
    while (runs_.size() > merge_factor_) {
      auto merged = std::make_unique<MergeRun<K, V>>();
      std::vector<MergeRun<K, V>*> inputs(
          runs_.begin(), runs_.begin() + merge_factor_);
      size_t total = 0;
      for (MergeRun<K, V>* run : inputs) {
        total += run->pairs.size();
        merged->bytes += run->bytes;
        if (run->on_disk) ctx_->scratch().ChargeSpillRead(run->bytes);
      }
      merged->pairs.reserve(total);

      RunMerger sub(ordering_, std::move(inputs), merge_factor_, ctx_,
                    metrics_);
      sub.InitHeap();
      while (!sub.heap_.empty()) merged->pairs.push_back(sub.PopMin());

      merged->on_disk = true;
      ctx_->scratch().ChargeSpillWrite(merged->bytes);
      metrics_->spill_count++;
      metrics_->spilled_bytes += merged->bytes;
      metrics_->merge_passes++;

      runs_.erase(runs_.begin(), runs_.begin() + merge_factor_);
      runs_.insert(runs_.begin(), merged.get());
      owned_.push_back(std::move(merged));
    }
  }

  void InitHeap() {
    heap_.clear();
    heap_.reserve(runs_.size());
    for (size_t i = 0; i < runs_.size(); ++i) {
      heap_.push_back(Cursor{runs_[i], 0, i});
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [this](const Cursor& a, const Cursor& b) {
                     return CursorAfter(a, b);
                   });
  }

  // Heap comparator: true if `a` surfaces after `b` (min-heap through
  // std::make_heap's max-heap semantics). Ties go to the lower rank.
  bool CursorAfter(const Cursor& a, const Cursor& b) const {
    const K& ka = a.Current().first;
    const K& kb = b.Current().first;
    if (ordering_->SortLess(ka, kb)) return false;
    if (ordering_->SortLess(kb, ka)) return true;
    return a.rank > b.rank;
  }

  const K& TopKey() const { return heap_.front().Current().first; }

  // Removes and returns the smallest pair, advancing its cursor.
  Pair PopMin() {
    auto after = [this](const Cursor& a, const Cursor& b) {
      return CursorAfter(a, b);
    };
    std::pop_heap(heap_.begin(), heap_.end(), after);
    Cursor& cursor = heap_.back();
    Pair pair = std::move(cursor.run->pairs[cursor.pos]);
    cursor.pos++;
    if (cursor.pos < cursor.run->pairs.size()) {
      std::push_heap(heap_.begin(), heap_.end(), after);
    } else {
      heap_.pop_back();
    }
    return pair;
  }

  const SpecOrdering<K, V>* ordering_;
  size_t merge_factor_;
  TaskContext* ctx_;
  TaskMetrics* metrics_;

  std::vector<MergeRun<K, V>*> runs_;
  std::vector<std::unique_ptr<MergeRun<K, V>>> owned_;
  std::vector<Cursor> heap_;
};

}  // namespace fj::mr
