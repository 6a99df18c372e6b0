// Wire encoding of one shuffle segment — the partition-r slice of one map
// task's committed output, as moved by a ShuffleTransport.
//
// A segment carries the task's non-empty partition-r runs in spill order,
// each as a PR 7 framed run block (record_format.h EncodeRunBlock) plus
// the run metadata the reduce side meters against (estimated bytes,
// on-disk flag, record count, pre-codec payload size, write-side
// checksum). Binary-format runs ship their existing encoded block
// verbatim; text-format runs are encoded on the fly (codec kNone), and
// their carried checksum is re-pointed at the block bytes so the reduce
// side's read verification covers what actually crossed the wire.
//
// Layout:
//   varint run_count
//   per run: varint flags (bit 0 = on_disk)
//            varint record_count | varint bytes | varint logical_bytes
//            fixed64 run_checksum
//            varint block_len | block bytes
//   fixed64 segment hash (FNV over everything above)
//
// The trailing hash is the PR 7 integrity contract extended to the wire:
// it is verified on decode regardless of JobSpec::verify_integrity, so a
// byte flipped in transit (or rotted in a worker's store) is DataLoss,
// never silently-wrong join output. Decoding preserves run order, so the
// reduce merger's map-task-then-spill tie-break — and therefore byte
// identity — survives the network hop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/varint.h"
#include "mapreduce/record_format.h"
#include "mapreduce/sort_buffer.h"

namespace fj::mr {

/// Appends the partition-`partition` segment of `output` to `*encoded`
/// and returns how many runs it carries (0: an empty slot). `verify`
/// mirrors JobSpec::verify_integrity: when on, text runs get a fresh
/// checksum over their block bytes (binary runs already carry one).
template <typename K, typename V>
uint64_t EncodeShuffleSegment(const MapTaskOutput<K, V>& output,
                              size_t partition, bool verify,
                              std::string* encoded) {
  uint64_t run_count = 0;
  for (const auto& spill : output.spills) {
    if (partition < spill.size() && spill[partition].HasRecords()) run_count++;
  }
  std::string body;
  AppendVarint(&body, run_count);
  CodecScratch scratch;
  SortedRun<K, V> text_run;
  for (const auto& spill : output.spills) {
    if (partition >= spill.size() || !spill[partition].HasRecords()) continue;
    const SortedRun<K, V>* run = &spill[partition];
    if (run->encoded.empty()) {
      // A text run travels as a codec-kNone block. The reduce side
      // verifies runs by their ContentChecksum, which for an encoded run
      // covers the block — so the carried checksum is the new block's.
      EncodeRunBlock(BlockCodec::kNone, run->pairs, &scratch,
                     &text_run.encoded, &text_run.logical_bytes);
      text_run.record_count = run->pairs.size();
      text_run.bytes = run->bytes;
      text_run.on_disk = run->on_disk;
      text_run.checksum = verify ? text_run.ContentChecksum() : 0;
      run = &text_run;
    }
    AppendVarint(&body, run->on_disk ? 1 : 0);
    AppendVarint(&body, run->record_count);
    AppendVarint(&body, run->bytes);
    AppendVarint(&body, run->logical_bytes);
    internal::AppendFixed64(&body, run->checksum);
    AppendVarint(&body, run->encoded.size());
    body.append(run->encoded);
  }
  internal::AppendFixed64(&body, HashString(body));
  encoded->append(body);
  return run_count;
}

/// Decodes a segment back into runs whose payload stays ENCODED (pairs
/// empty, `encoded` set): RunReduceAttempt decodes a private copy per
/// attempt, exactly as it does for binary-format runs. The trailing hash
/// is always verified; a mismatch is DataLoss.
template <typename K, typename V>
Status DecodeShuffleSegment(std::string_view segment,
                            std::vector<SortedRun<K, V>>* runs) {
  runs->clear();
  if (segment.size() < 8) {
    return Status::DataLoss("shuffle segment truncated before hash");
  }
  const std::string_view body = segment.substr(0, segment.size() - 8);
  size_t pos = body.size();
  uint64_t carried_hash = 0;
  if (!internal::DecodeFixed64(segment, &pos, &carried_hash) ||
      carried_hash != HashString(body)) {
    return Status::DataLoss("shuffle segment hash mismatch");
  }
  pos = 0;
  uint64_t run_count = 0;
  if (!DecodeVarint(body, &pos, &run_count) || run_count > body.size()) {
    return Status::DataLoss("shuffle segment run count corrupt");
  }
  runs->reserve(static_cast<size_t>(run_count));
  for (uint64_t i = 0; i < run_count; ++i) {
    SortedRun<K, V> run;
    uint64_t flags = 0, block_len = 0;
    if (!DecodeVarint(body, &pos, &flags) ||
        !DecodeVarint(body, &pos, &run.record_count) ||
        !DecodeVarint(body, &pos, &run.bytes) ||
        !DecodeVarint(body, &pos, &run.logical_bytes) ||
        !internal::DecodeFixed64(body, &pos, &run.checksum) ||
        !DecodeVarint(body, &pos, &block_len) ||
        block_len > body.size() - pos) {
      return Status::DataLoss("shuffle segment run header truncated");
    }
    run.on_disk = (flags & 1) != 0;
    run.encoded.assign(body.data() + pos, static_cast<size_t>(block_len));
    pos += static_cast<size_t>(block_len);
    runs->push_back(std::move(run));
  }
  if (pos != body.size()) {
    return Status::DataLoss("trailing bytes after last shuffle segment run");
  }
  return Status::OK();
}

}  // namespace fj::mr
