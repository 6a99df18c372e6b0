// Map-side shuffle layer: memory-bounded buffering, sorting, combining,
// and spilling of map output — the analogue of Hadoop's MapOutputBuffer.
//
// Every map task owns one SortBuffer. Emitted pairs accumulate against the
// job's byte budget (JobSpec::sort_buffer_bytes); when the next pair would
// overflow it, the buffer is written out as one sorted run per reduce
// partition — a "spill". Spill bytes are metered in the task's
// spilled_bytes, which the cost model prices as local-disk traffic. With a
// zero budget the whole map output becomes a single in-memory run at
// Flush() and nothing is spilled — the legacy unbounded behaviour.
//
// Without a combiner, pairs are buffered per reduce partition as emitted
// and each spill stable-sorts every partition by the sort comparator. With
// a combiner they
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
// A spill serializes each partition's sorted pairs as one run block
// (record_format.h), compressed when JobSpec::block_codec asks for it.
// The budget charges ByteSizeOf estimates, so spill points do not depend
// on the codec either; the shuffle and spill meters count encoded bytes.
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
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "mapreduce/byte_size.h"
#include "mapreduce/contract.h"
#include "mapreduce/job_spec.h"
#include "mapreduce/metrics.h"
#include "mapreduce/record_format.h"

namespace fj::mr {

/// One sorted run of shuffle pairs for a single reduce partition, as the
/// map side publishes it: the pairs serialized as one framed, possibly
/// compressed run block (record_format.h), and the run's meters. Runs are
/// the unit the reduce side merges. A published block is only ever read:
/// every reduce attempt's merge decodes its own pairs from it.
struct SortedRun {
  /// The run block (EncodeRunBlock); empty when the run holds no records.
  /// Its size is the run's shuffle size.
  std::string encoded;
  uint64_t record_count = 0;
  /// Pre-codec payload size, for compression-ratio metering.
  uint64_t logical_bytes = 0;
  /// Write-side HashString of the block — the bytes that actually sit in
  /// the shuffle, compressed or not — computed when
  /// JobSpec::verify_integrity is on; re-verified at map-attempt commit
  /// and at the reduce side's run-merge read. 0 when verification is off.
  uint64_t checksum = 0;

  bool HasRecords() const { return record_count > 0; }
};

/// Everything one map task ships to the shuffle: spills in temporal order,
/// each holding one sorted run per reduce partition.
struct MapTaskOutput {
  std::vector<std::vector<SortedRun>> spills;
};

/// The Emitter handed to mappers. Buffers, sorts, combines, and spills.
template <typename K, typename V>
class SortBuffer : public Emitter<K, V> {
 public:
  using Pair = std::pair<K, V>;

  SortBuffer(const JobSpec<K, V>* spec, const SpecOrdering<K, V>* ordering,
             TaskMetrics* metrics, MapTaskOutput* out,
             KeyContractChecker<K, SpecOrdering<K, V>>* checker = nullptr)
      : spec_(spec), ordering_(ordering), metrics_(metrics), out_(out),
        checker_(checker), partitions_(spec->num_reduce_tasks) {}

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
      partitions_[partition].emplace_back(std::move(key), std::move(value));
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

  // Routes combiner output into the per-partition buffers. The combiner
  // may emit any key, so the partition is recomputed per emitted pair.
  class CombineCollector : public Emitter<K, V> {
   public:
    CombineCollector(const SpecOrdering<K, V>* ordering,
                     std::vector<std::vector<Pair>>* partitions)
        : ordering_(ordering), partitions_(partitions) {}

    void Emit(K key, V value) override {
      const size_t partition = ordering_->PartitionOf(key);
      assert(partition < partitions_->size());
      (*partitions_)[partition].emplace_back(std::move(key), std::move(value));
    }

   private:
    const SpecOrdering<K, V>* ordering_;
    std::vector<std::vector<Pair>>* partitions_;
  };

  // Writes the buffered pairs out as one sorted run per partition. Every
  // run is serialized: its pairs become one encoded (optionally
  // compressed) block, and the shuffle meters count the encoded bytes.
  void Spill(bool to_disk) {
    if (spec_->combiner) CombineGroups();

    std::vector<SortedRun> runs(partitions_.size());
    uint64_t run_bytes = 0;
    for (size_t p = 0; p < partitions_.size(); ++p) {
      std::vector<Pair>& pairs = partitions_[p];
      SortedRun& run = runs[p];
      if (pairs.empty()) continue;
      // Stable sort: equal keys keep emit order (the combiner's emit order
      // in a combining job), which the merge layer relies on for
      // deterministic output.
      std::stable_sort(pairs.begin(), pairs.end(),
                       [this](const Pair& a, const Pair& b) {
                         return ordering_->SortLess(a.first, b.first);
                       });
      run.record_count = pairs.size();
      EncodeRunBlock(spec_->block_codec, pairs, &codec_scratch_,
                     &run.encoded, &run.logical_bytes);
      pairs.clear();
      // Write-side checksum, the HDFS "checksum on write" half; the read
      // boundaries re-verify it.
      if (spec_->verify_integrity) run.checksum = HashString(run.encoded);
      metrics_->shuffle_records += run.record_count;
      metrics_->shuffle_bytes += run.encoded.size();
      metrics_->codec_logical_bytes += run.logical_bytes;
      metrics_->codec_encoded_bytes += run.encoded.size();
      run_bytes += run.encoded.size();
    }
    if (to_disk) {
      metrics_->spill_count++;
      metrics_->spilled_bytes += run_bytes;
    }

    out_->spills.push_back(std::move(runs));
    buffered_pairs_ = 0;
    buffered_bytes_ = 0;
  }

  // Runs the combiner once per buffered key group, partition by partition
  // and in sort order within a partition (the order a sort of every pair
  // would have grouped them in); its output lands in the per-partition
  // buffers. Empties the group table.
  void CombineGroups() {
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

    CombineCollector collector(ordering_, &partitions_);
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
    groups_.clear();
  }

  const JobSpec<K, V>* spec_;
  const SpecOrdering<K, V>* ordering_;
  TaskMetrics* metrics_;
  MapTaskOutput* out_;
  /// Optional contract checker for this attempt; nullptr when
  /// JobSpec::check_contracts is off.
  KeyContractChecker<K, SpecOrdering<K, V>>* checker_;

  /// Buffered pairs per reduce partition, in emit order: the mapper's
  /// (jobs without a combiner) or the combiner's, at spill time.
  std::vector<std::vector<Pair>> partitions_;
  GroupMap groups_{0, KeyHasher{}, KeyEqual{ordering_}};  ///< combining jobs
  size_t buffered_pairs_ = 0;
  uint64_t buffered_bytes_ = 0;
  /// Reused by every run block this attempt encodes.
  CodecScratch codec_scratch_;
};

}  // namespace fj::mr
