// An in-memory stand-in for a distributed file system (HDFS).
//
// Files are named, immutable-once-written sequences of text lines. Jobs read
// input files from the Dfs and write one output file per job. The Dfs also
// computes input splits (block boundaries) for the map phase.
//
// Like HDFS, every file carries integrity metadata: a per-line FNV-1a hash
// (integrity.h LineChecksum) and a whole-file hash (the ordered fold of the
// line hashes), maintained on WriteFile/AppendToFile. A writer may hand in
// the line hashes it already computed, as HDFS clients checksum on write:
// a job's reduce tasks hash their own output lines on their workers, and
// the commit only folds the file hash. VerifyFile recomputes both against
// the stored bytes and reports DataLoss on any mismatch; jobs run it over
// their inputs when JobSpec::verify_integrity is on. RenameFile lets
// producers commit output atomically (write under a temp name, rename
// into place), so a crashed or killed attempt can never leave a readable
// partial file under the final name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "mapreduce/input.h"

namespace fj::mr {

// Every fallible method returns Status/Result, which are [[nodiscard]] at
// the class level (status.h / result.h): ignoring a Dfs error is a compile
// error, deliberate drops are written `(void)dfs.DeleteFile(...)`.
class Dfs {
 public:
  Dfs() = default;
  Dfs(const Dfs&) = delete;
  Dfs& operator=(const Dfs&) = delete;

  /// Creates `name` with the given lines. Fails if the file exists.
  /// `line_checksums`, when not empty, holds LineChecksum(lines[i]) for
  /// every line, computed by the writer; the Dfs then folds the file hash
  /// from them instead of hashing every line itself. A count that differs
  /// from the line count is InvalidArgument; debug builds re-hash every
  /// line and return Internal on a mismatch.
  Status WriteFile(const std::string& name, std::vector<std::string> lines,
                   std::vector<uint64_t> line_checksums = {});

  /// Creates `name` if needed and appends the lines.
  Status AppendToFile(const std::string& name,
                      const std::vector<std::string>& lines);

  /// Returns a stable pointer to the file's lines (files are never moved
  /// once created; appends mutate the pointed-to vector, so callers must not
  /// hold the pointer across writes).
  Result<const std::vector<std::string>*> ReadFile(const std::string& name) const;

  bool Exists(const std::string& name) const;

  Status DeleteFile(const std::string& name);

  /// Atomically renames `from` to `to`. Fails with NotFound when `from` is
  /// missing and AlreadyExists when `to` already exists; on failure nothing
  /// changes. Line storage moves with the entry, so pointers obtained from
  /// ReadFile(from) keep observing the same lines under the new name.
  Status RenameFile(const std::string& from, const std::string& to);

  /// Removes every file.
  void Clear();

  /// Recomputes the per-line and whole-file hashes of `name` against the
  /// stored bytes. Returns the bytes scanned (lines + terminators) on
  /// success; DataLoss naming the first diverging line otherwise.
  Result<uint64_t> VerifyFile(const std::string& name) const;

  /// The whole-file content hash maintained by writes/appends.
  Result<uint64_t> FileChecksum(const std::string& name) const;

  /// Test/fault-injection hook: flips one deterministic, seed-chosen byte
  /// of the stored file WITHOUT touching the integrity metadata, so the
  /// next VerifyFile reports DataLoss. Fails on missing or all-empty files.
  Status CorruptByteForTest(const std::string& name, uint64_t seed);

  /// Total serialized bytes of the file: lines plus newline terminators.
  Result<uint64_t> FileBytes(const std::string& name) const;

  Result<size_t> FileLines(const std::string& name) const;

  /// Names of all files, sorted.
  std::vector<std::string> ListFiles() const;

  /// Splits the given files into roughly `target_splits` contiguous line
  /// ranges overall, never spanning files and never returning empty splits
  /// (unless every file is empty). With target_splits == 0, one split per
  /// file. Split sizes are proportional to file line counts.
  Result<std::vector<InputSplit>> MakeSplits(
      const std::vector<std::string>& names, size_t target_splits) const;

 private:
  // Lines plus their integrity metadata. line_hashes[i] is the FNV-1a hash
  // of lines[i]; file_hash folds them in order (seeded kFnvOffsetBasis).
  struct FileEntry {
    std::vector<std::string> lines;
    std::vector<uint64_t> line_hashes;
    uint64_t file_hash;
    FileEntry();
    void Append(const std::string& line);
  };

  Result<const FileEntry*> FindLocked(const std::string& name) const
      FJ_REQUIRES_SHARED(mu_);

  // Reader/writer lock: jobs hammer the read path (splits, verification,
  // map input) concurrently, while writes are one commit per task.
  mutable SharedMutex mu_{"dfs", lock_rank::kStorage};
  // unique_ptr keeps line storage stable across map rehashes.
  std::map<std::string, std::unique_ptr<FileEntry>> files_ FJ_GUARDED_BY(mu_);
};

}  // namespace fj::mr
