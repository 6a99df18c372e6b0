// Reduce-side shuffle layer: one streaming k-way merge of a partition's
// published run blocks — the analogue of Hadoop's reduce-side Merger.
//
// A reduce task collects every run block of its partition (from all map
// tasks, in map-task-then-spill order) and feeds them to a RunMerger
// instead of re-sorting the whole partition. The merger keeps one cursor
// per block and a min-heap over the cursors, and hands the reducer one
// contiguous key group at a time. A cursor decodes its block's next pair
// only when the heap pops its current one: a stored (kNone) payload is
// read in place inside the published block, and an fjlz payload is
// decompressed once, when the cursor opens, into the cursor's own buffer.
//
// Memory bound: beyond the published blocks it reads, a merge holds one
// decoded pair per open cursor, the current key group, and the
// decompressed payload of each open fjlz cursor — never the partition's
// typed pairs. A cursor releases its buffer when its block ends. Every
// run is in memory, so there is no Hadoop io.sort.factor: one pass merges
// any number of runs.
//
// Ties (keys equal under the sort comparator) are broken toward the run
// with the lower rank — runs are ranked in map-task-then-spill order, and
// each run is internally in emit order, so tied pairs surface in exactly
// the order the legacy concatenate-then-stable-sort produced. Output is
// byte-identical to the unbounded path.
//
// The merger only reads the blocks, so a retry or a backup of the same
// reduce task finds them pristine. A block that fails to decode (a bad
// frame, a truncated record, trailing bytes: RunBlockReader's checks)
// ends the merge with DataLoss; the groups handed out before it all ended
// before the damage, and the group being collected is dropped.
//
// Integrity: with JobSpec::verify_integrity the engine re-verifies every
// published block's write-side checksum (SortedRun::checksum) at the
// run-merge read boundary — in RunReduceAttempt, before the merge opens
// the blocks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_spec.h"
#include "mapreduce/record_format.h"

namespace fj::mr {

template <typename K, typename V>
class RunMerger {
 public:
  using Pair = std::pair<K, V>;

  /// `blocks` are run blocks (EncodeRunBlock) ordered by rank (map task
  /// first, then spill index); they must outlive the merger. Blocks of no
  /// records are skipped.
  RunMerger(const SpecOrdering<K, V>* ordering,
            std::vector<std::string_view> blocks)
      : ordering_(ordering), blocks_(std::move(blocks)) {}

  /// Streams each contiguous key group to `fn` as a span (valid only for
  /// the duration of the call), smallest keys first. `fn` may return void
  /// (consume every group) or bool — returning false stops the merge
  /// early, which the engine's fault layer uses to abort a crashing
  /// reduce attempt mid-stream. Call once. Returns DataLoss when a block
  /// fails to decode, OK otherwise (a stop by `fn` included).
  template <typename Fn>
  Status ForEachGroup(Fn fn) {
    auto emit = [&fn](std::span<const Pair> group) -> bool {
      if constexpr (std::is_void_v<
                        std::invoke_result_t<Fn&, std::span<const Pair>>>) {
        fn(group);
        return true;
      } else {
        return fn(group);
      }
    };

    FJ_RETURN_IF_ERROR(OpenCursors());
    std::vector<Pair> group;
    while (!heap_.empty()) {
      if (!group.empty() &&
          !ordering_->GroupEqual(group.front().first, TopKey())) {
        if (!emit(std::span<const Pair>(group.data(), group.size()))) {
          return Status::OK();
        }
        group.clear();
      }
      FJ_RETURN_IF_ERROR(PopMinInto(&group));
    }
    if (!group.empty()) {
      emit(std::span<const Pair>(group.data(), group.size()));
    }
    return Status::OK();
  }

 private:
  struct Cursor {
    RunBlockReader<K, V> reader;
    /// The decompressed payload of an fjlz block; empty for kNone.
    std::string buffer;
    /// The block's next pair in sort order, decoded.
    Pair current;
    size_t rank = 0;
  };

  // Opens every block with records and decodes its first pair, then
  // heapifies the cursors.
  Status OpenCursors() {
    // Reserved up front: the heap points into `cursors_`.
    cursors_.reserve(blocks_.size());
    for (size_t rank = 0; rank < blocks_.size(); ++rank) {
      Cursor& cursor = cursors_.emplace_back();
      cursor.rank = rank;
      FJ_RETURN_IF_ERROR(cursor.reader.Open(blocks_[rank], &cursor.buffer));
      if (cursor.reader.remaining() == 0) {
        cursors_.pop_back();
        continue;
      }
      FJ_RETURN_IF_ERROR(cursor.reader.Next(&cursor.current));
    }
    heap_.reserve(cursors_.size());
    for (Cursor& cursor : cursors_) heap_.push_back(&cursor);
    std::make_heap(heap_.begin(), heap_.end(), After{this});
    return Status::OK();
  }

  // Heap comparator: true if `a` surfaces after `b` (min-heap through
  // std::make_heap's max-heap semantics). Ties go to the lower rank.
  struct After {
    const RunMerger* merger;
    bool operator()(const Cursor* a, const Cursor* b) const {
      const SpecOrdering<K, V>& ordering = *merger->ordering_;
      if (ordering.SortLess(a->current.first, b->current.first)) return false;
      if (ordering.SortLess(b->current.first, a->current.first)) return true;
      return a->rank > b->rank;
    }
  };

  const K& TopKey() const { return heap_.front()->current.first; }

  // Moves the smallest pair into `group`, then advances its cursor: the
  // cursor decodes its next pair and rejoins the heap, or leaves it at the
  // end of its block and releases its buffer.
  Status PopMinInto(std::vector<Pair>* group) {
    std::pop_heap(heap_.begin(), heap_.end(), After{this});
    Cursor* cursor = heap_.back();
    group->push_back(std::move(cursor->current));
    if (cursor->reader.remaining() == 0) {
      heap_.pop_back();
      std::string().swap(cursor->buffer);
      return Status::OK();
    }
    FJ_RETURN_IF_ERROR(cursor->reader.Next(&cursor->current));
    std::push_heap(heap_.begin(), heap_.end(), After{this});
    return Status::OK();
  }

  const SpecOrdering<K, V>* ordering_;
  std::vector<std::string_view> blocks_;
  std::vector<Cursor> cursors_;
  std::vector<Cursor*> heap_;
};

}  // namespace fj::mr
