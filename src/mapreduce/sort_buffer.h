// Map-side shuffle layer: memory-bounded buffering, sorting, combining,
// and spilling of map output — the analogue of Hadoop's MapOutputBuffer.
//
// Every map task owns one SortBuffer. Emitted pairs accumulate against the
// job's byte budget (JobSpec::sort_buffer_bytes); when the next pair would
// overflow it, the buffer is written out as one sorted run per reduce
// partition — a "spill". Spill bytes are charged through the task's
// LocalScratch so the cost model sees the I/O. With a zero budget the
// whole map output becomes a single in-memory run at Flush() and nothing
// is charged — the legacy unbounded behaviour.
//
// Without a combiner, pairs are buffered as emitted and each spill
// stable-sorts them by (partition, sort comparator). With a combiner they
// are combined on insert: each emitted value joins its key's group in a
// hash table (values in emit order), and a spill sorts only the distinct
// keys by (partition, sort comparator) and calls the combiner once per
// group — the same call sequence, with the same values in the same order,
// as sorting every pair and grouping adjacent keys. Hash grouping needs
// the default comparators (Job::Run rejects a combiner together with a
// custom sort_less or group_equal), under which group-equal keys are
// equal keys. Either way the byte budget charges every emitted pair, so
// spill points and peak_buffer_bytes do not depend on the combiner.
//
// Determinism: pairs with equal keys stay in emit order within a run, and
// spills are numbered in temporal order. The reduce-side RunMerger breaks
// ties toward earlier (map task, spill) runs, which reproduces the legacy
// concatenate-then-stable-sort order exactly; job output is byte-identical
// with spilling on or off.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "mapreduce/byte_size.h"
#include "mapreduce/contract.h"
#include "mapreduce/integrity.h"
#include "mapreduce/job_spec.h"
#include "mapreduce/metrics.h"
#include "mapreduce/record_format.h"
#include "mapreduce/task_context.h"

namespace fj::mr {

/// One sorted run of shuffle pairs for a single reduce partition. Runs are
/// the unit the reduce side merges; `bytes` is the estimated serialized
/// size (computed while the run was built, so nothing re-walks the data).
template <typename K, typename V>
struct SortedRun {
  std::vector<std::pair<K, V>> pairs;
  uint64_t bytes = 0;
  /// True when the run was spilled: its write was charged to the producing
  /// task's scratch and its read will be charged to the consuming task.
  bool on_disk = false;
  /// Write-side ContentChecksum(), computed when the run is finalized and
  /// JobSpec::verify_integrity is on; re-verified at map-attempt commit
  /// and at the reduce side's run-merge read. 0 when verification is off.
  uint64_t checksum = 0;
  /// Binary format only: the framed (possibly compressed) run block
  /// produced by EncodeRunBlock. When non-empty, `pairs` is empty (the
  /// encoded block is authoritative; the reduce side decodes a private
  /// copy), `bytes` is the encoded size, and `record_count` remembers how
  /// many pairs the block holds.
  std::string encoded;
  uint64_t record_count = 0;
  /// Binary format only: pre-codec payload size, for compression-ratio
  /// metering.
  uint64_t logical_bytes = 0;

  /// True when the run carries any records, decoded or still encoded.
  bool HasRecords() const { return !pairs.empty() || record_count > 0; }

  /// The run's content checksum: HashString over the encoded block when
  /// there is one — the bytes that actually sit in the shuffle, compressed
  /// or not — else integrity.h RunChecksum over the pairs.
  uint64_t ContentChecksum() const {
    return encoded.empty() ? RunChecksum(pairs) : HashString(encoded);
  }
};

/// Everything one map task ships to the shuffle: spills in temporal order,
/// each holding one sorted run per reduce partition.
template <typename K, typename V>
struct MapTaskOutput {
  std::vector<std::vector<SortedRun<K, V>>> spills;
};

/// The Emitter handed to mappers. Buffers, sorts, combines, and spills.
template <typename K, typename V>
class SortBuffer : public Emitter<K, V> {
 public:
  using Pair = std::pair<K, V>;

  SortBuffer(const JobSpec<K, V>* spec, const SpecOrdering<K, V>* ordering,
             TaskContext* ctx, TaskMetrics* metrics, MapTaskOutput<K, V>* out,
             KeyContractChecker<K, SpecOrdering<K, V>>* checker = nullptr)
      : spec_(spec), ordering_(ordering), ctx_(ctx), metrics_(metrics),
        out_(out), checker_(checker) {}

  void Emit(K key, V value) override {
    // Once the checker latched a violation the job is failing anyway;
    // stop accepting output so the attempt winds down fast.
    if (checker_ != nullptr && !checker_->ok()) return;

    const uint64_t pair_bytes = ByteSizeOf(key) + ByteSizeOf(value);
    metrics_->output_records++;
    metrics_->output_bytes += pair_bytes;

    // Spill-before-insert keeps the buffered bytes at or under the budget
    // (a single pair larger than the whole budget still gets buffered —
    // it has to live somewhere before it can be spilled).
    const uint64_t budget = spec_->sort_buffer_bytes;
    if (budget > 0 && buffered_pairs_ > 0 &&
        buffered_bytes_ + pair_bytes > budget) {
      Spill(/*to_disk=*/true);
    }

    const size_t partition = ordering_->PartitionOf(key);
    if (checker_ != nullptr) {
      // The checker reports an out-of-range partition as a structured
      // violation BEFORE the assert below would hit it (in release builds
      // the assert compiles away and the bad index would be UB).
      checker_->ObserveEmit(key, partition);
      if (!checker_->ok()) return;
    }
    assert(partition < spec_->num_reduce_tasks);
    if (spec_->combiner) {
      auto [it, inserted] = groups_.try_emplace(std::move(key));
      if (inserted) it->second.partition = partition;
      it->second.values.push_back(std::move(value));
    } else {
      entries_.push_back(
          Entry{partition, pair_bytes, Pair(std::move(key), std::move(value))});
    }
    ++buffered_pairs_;
    buffered_bytes_ += pair_bytes;
    metrics_->peak_buffer_bytes =
        std::max(metrics_->peak_buffer_bytes, buffered_bytes_);
  }

  /// Finalizes the map task's output. With a budget every spill is a disk
  /// spill (Hadoop always writes map output to local disk); without one
  /// the single final run stays an uncharged in-memory run.
  void Flush() {
    if (buffered_pairs_ > 0) Spill(/*to_disk=*/spec_->sort_buffer_bytes > 0);
  }

 private:
  struct Entry {
    size_t partition;
    uint64_t bytes;
    Pair pair;
  };

  /// One key's buffered values, in emit order (combining jobs only).
  struct Group {
    size_t partition = 0;
    std::vector<V> values;
  };

  struct KeyHasher {
    size_t operator()(const K& key) const { return KeyHashOf(key); }
  };
  struct KeyEqual {
    const SpecOrdering<K, V>* ordering;
    bool operator()(const K& a, const K& b) const {
      return ordering->GroupEqual(a, b);
    }
  };
  using GroupMap = std::unordered_map<K, Group, KeyHasher, KeyEqual>;

  // Routes combiner output into per-partition accumulators. The combiner
  // may emit any key, so the partition is recomputed per emitted pair, and
  // the combined output is metered here — this is where post-combine
  // records/bytes are accounted (they become the run totals below).
  class CombineCollector : public Emitter<K, V> {
   public:
    CombineCollector(const SpecOrdering<K, V>* ordering, size_t num_partitions)
        : ordering_(ordering), pairs_(num_partitions), bytes_(num_partitions) {}

    void Emit(K key, V value) override {
      const size_t partition = ordering_->PartitionOf(key);
      assert(partition < pairs_.size());
      bytes_[partition] += ByteSizeOf(key) + ByteSizeOf(value);
      pairs_[partition].emplace_back(std::move(key), std::move(value));
    }

    std::vector<std::vector<Pair>>& pairs() { return pairs_; }
    const std::vector<uint64_t>& bytes() const { return bytes_; }

   private:
    const SpecOrdering<K, V>* ordering_;
    std::vector<std::vector<Pair>> pairs_;
    std::vector<uint64_t> bytes_;
  };

  void Spill(bool to_disk) {
    std::vector<SortedRun<K, V>> runs(spec_->num_reduce_tasks);
    if (spec_->combiner) {
      CombineGroups(&runs);
    } else {
      // Stable sort by (partition, key): equal keys keep emit order, which
      // the merge layer relies on for deterministic output.
      std::stable_sort(entries_.begin(), entries_.end(),
                       [this](const Entry& a, const Entry& b) {
                         if (a.partition != b.partition) {
                           return a.partition < b.partition;
                         }
                         return ordering_->SortLess(a.pair.first,
                                                    b.pair.first);
                       });
      for (Entry& e : entries_) {
        runs[e.partition].pairs.push_back(std::move(e.pair));
        runs[e.partition].bytes += e.bytes;
      }
      entries_.clear();
    }

    uint64_t run_bytes = 0;
    const bool binary = spec_->record_format == RecordFormat::kBinary;
    for (SortedRun<K, V>& run : runs) {
      metrics_->shuffle_records += run.pairs.size();
      if (binary && !run.pairs.empty()) {
        // Serialization is real in binary mode: the run's pairs become one
        // encoded (optionally compressed) block, and the shuffle meters
        // count encoded bytes actually produced.
        run.record_count = run.pairs.size();
        EncodeRunBlock(spec_->block_codec, run.pairs, &codec_scratch_,
                       &run.encoded, &run.logical_bytes);
        run.pairs.clear();
        run.pairs.shrink_to_fit();
        run.bytes = run.encoded.size();
        metrics_->codec_logical_bytes += run.logical_bytes;
        metrics_->codec_encoded_bytes += run.encoded.size();
      }
      // Write-side checksum, the HDFS "checksum on write" half; the read
      // boundaries re-verify it.
      if (spec_->verify_integrity) run.checksum = run.ContentChecksum();
      metrics_->shuffle_bytes += run.bytes;
      run_bytes += run.bytes;
      run.on_disk = to_disk;
    }
    if (to_disk) {
      metrics_->spill_count++;
      metrics_->spilled_bytes += run_bytes;
      ctx_->scratch().ChargeSpillWrite(run_bytes);
    }

    out_->spills.push_back(std::move(runs));
    buffered_pairs_ = 0;
    buffered_bytes_ = 0;
  }

  // Runs the combiner once per buffered key group, partition by partition
  // and in sort order within a partition (the order a sort of every pair
  // would have grouped them in), then rebuilds sorted runs from its
  // output. Empties the group table.
  void CombineGroups(std::vector<SortedRun<K, V>>* runs) {
    std::vector<typename GroupMap::value_type*> order;
    order.reserve(groups_.size());
    for (auto& entry : groups_) order.push_back(&entry);
    // Keys are distinct under the sort order (equal keys share a group),
    // so this order is total and does not depend on the map's.
    std::sort(order.begin(), order.end(),
              [this](const auto* a, const auto* b) {
                if (a->second.partition != b->second.partition) {
                  return a->second.partition < b->second.partition;
                }
                return ordering_->SortLess(a->first, b->first);
              });

    CombineCollector collector(ordering_, spec_->num_reduce_tasks);
    size_t groups_checked = 0;
    size_t groups_seen = 0;
    for (auto* entry : order) {
      const K& key = entry->first;
      Group& group = entry->second;
      // Property-test the combiner on a few sampled groups per spill,
      // BEFORE the real run consumes the values (the test only copies).
      if (checker_ != nullptr && checker_->ok() &&
          groups_checked < kContractCombinerGroupsPerSpill &&
          groups_seen++ % checker_->sample_every() == 0) {
        ++groups_checked;
        checker_->Latch(CheckCombinerContract(
            spec_->combiner, *ordering_, key, group.values,
            checker_->job_name(), &checker_->stats()));
      }
      spec_->combiner(key, std::move(group.values), &collector);
    }
    for (size_t p = 0; p < runs->size(); ++p) {
      SortedRun<K, V>& run = (*runs)[p];
      run.pairs = std::move(collector.pairs()[p]);
      run.bytes = collector.bytes()[p];
      // The combiner usually emits in key order already; stable sort keeps
      // its emit order on ties either way.
      std::stable_sort(run.pairs.begin(), run.pairs.end(),
                       [this](const Pair& a, const Pair& b) {
                         return ordering_->SortLess(a.first, b.first);
                       });
    }
    groups_.clear();
  }

  const JobSpec<K, V>* spec_;
  const SpecOrdering<K, V>* ordering_;
  TaskContext* ctx_;
  TaskMetrics* metrics_;
  MapTaskOutput<K, V>* out_;
  /// Optional contract checker for this attempt; nullptr when
  /// JobSpec::check_contracts is off.
  KeyContractChecker<K, SpecOrdering<K, V>>* checker_;

  std::vector<Entry> entries_;    ///< jobs without a combiner
  GroupMap groups_{0, KeyHasher{}, KeyEqual{ordering_}};  ///< combining jobs
  size_t buffered_pairs_ = 0;
  uint64_t buffered_bytes_ = 0;
  /// Binary format: reused by every run block this attempt encodes.
  CodecScratch codec_scratch_;
};

}  // namespace fj::mr
