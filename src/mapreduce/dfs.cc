#include "mapreduce/dfs.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/hash.h"
#include "mapreduce/integrity.h"

namespace fj::mr {

Result<const Dfs::FileEntry*> Dfs::FindLocked(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("dfs file: " + name);
  return static_cast<const FileEntry*>(it->second.get());
}

Status Dfs::WriteFile(const std::string& name, std::vector<std::string> lines,
                      std::vector<uint64_t> line_checksums) {
  if (line_checksums.empty()) {
    line_checksums.reserve(lines.size());
    for (const auto& line : lines) line_checksums.push_back(LineChecksum(line));
  } else if (line_checksums.size() != lines.size()) {
    return Status::InvalidArgument(
        "dfs file " + name + ": " + std::to_string(line_checksums.size()) +
        " line checksums for " + std::to_string(lines.size()) + " lines");
  } else {
#ifndef NDEBUG
    for (size_t i = 0; i < lines.size(); ++i) {
      if (LineChecksum(lines[i]) != line_checksums[i]) {
        return Status::Internal("dfs file " + name +
                                ": the writer's checksum of line " +
                                std::to_string(i) +
                                " does not match its bytes");
      }
    }
#endif
  }
  auto entry = std::make_unique<FileEntry>();
  for (const uint64_t h : line_checksums) {
    entry->file_hash = HashCombine(entry->file_hash, h);
  }
  entry->lines = std::move(lines);
  entry->line_hashes = std::move(line_checksums);
  WriterMutexLock lock(&mu_);
  auto [it, inserted] = files_.try_emplace(name, std::move(entry));
  (void)it;
  if (!inserted) return Status::AlreadyExists("dfs file exists: " + name);
  return Status::OK();
}

Result<const std::vector<std::string>*> Dfs::ReadFile(
    const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  FJ_ASSIGN_OR_RETURN(const FileEntry* entry, FindLocked(name));
  return &entry->lines;
}

bool Dfs::Exists(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  return files_.count(name) > 0;
}

Status Dfs::DeleteFile(const std::string& name) {
  WriterMutexLock lock(&mu_);
  if (files_.erase(name) == 0) return Status::NotFound("dfs file: " + name);
  return Status::OK();
}

Status Dfs::RenameFile(const std::string& from, const std::string& to) {
  WriterMutexLock lock(&mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("dfs file: " + from);
  if (files_.count(to) > 0) {
    return Status::AlreadyExists("dfs file exists: " + to);
  }
  auto entry = std::move(it->second);
  files_.erase(it);
  files_.emplace(to, std::move(entry));
  return Status::OK();
}

void Dfs::Clear() {
  WriterMutexLock lock(&mu_);
  files_.clear();
}

Result<uint64_t> Dfs::VerifyFile(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  FJ_ASSIGN_OR_RETURN(const FileEntry* entry, FindLocked(name));
  uint64_t bytes = 0;
  uint64_t fold = kFnvOffsetBasis;
  for (size_t i = 0; i < entry->lines.size(); ++i) {
    const uint64_t h = LineChecksum(entry->lines[i]);
    bytes += entry->lines[i].size() + 1;
    if (h != entry->line_hashes[i]) {
      return Status::DataLoss("dfs file " + name + ": line " +
                              std::to_string(i) +
                              " does not match its stored checksum");
    }
    fold = HashCombine(fold, h);
  }
  if (fold != entry->file_hash) {
    return Status::DataLoss("dfs file " + name +
                            ": whole-file checksum mismatch");
  }
  return bytes;
}

Result<uint64_t> Dfs::FileChecksum(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  FJ_ASSIGN_OR_RETURN(const FileEntry* entry, FindLocked(name));
  return entry->file_hash;
}

Status Dfs::CorruptByteForTest(const std::string& name, uint64_t seed) {
  WriterMutexLock lock(&mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("dfs file: " + name);
  auto& lines = it->second->lines;
  if (lines.empty()) {
    return Status::InvalidArgument("cannot corrupt empty file: " + name);
  }
  // Pick a deterministic non-empty line, then a byte and a non-zero mask.
  const uint64_t h = HashCombine(HashString(name), HashInt64(seed));
  for (size_t probe = 0; probe < lines.size(); ++probe) {
    auto& line = lines[(h + probe) % lines.size()];
    if (line.empty()) continue;
    FlipByte(line, h);
    return Status::OK();
  }
  return Status::InvalidArgument("cannot corrupt file of empty lines: " +
                                 name);
}

std::vector<std::string> Dfs::ListFiles() const {
  ReaderMutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, entry] : files_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

Result<uint64_t> Dfs::FileBytes(const std::string& name) const {
  ReaderMutexLock lock(&mu_);
  FJ_ASSIGN_OR_RETURN(const FileEntry* entry, FindLocked(name));
  uint64_t total = 0;
  for (const auto& l : entry->lines) total += l.size() + 1;
  return total;
}

Result<size_t> Dfs::FileLines(const std::string& name) const {
  FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* lines, ReadFile(name));
  return lines->size();
}

Result<std::vector<InputSplit>> Dfs::MakeSplits(
    const std::vector<std::string>& names, size_t target_splits) const {
  size_t total_lines = 0;
  std::vector<size_t> line_counts(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    FJ_ASSIGN_OR_RETURN(line_counts[i], FileLines(names[i]));
    total_lines += line_counts[i];
  }

  std::vector<InputSplit> splits;
  for (size_t i = 0; i < names.size(); ++i) {
    size_t lines = line_counts[i];
    if (lines == 0) continue;
    size_t file_splits = 1;
    if (target_splits > 0 && total_lines > 0) {
      // Proportional share, at least one split per non-empty file.
      double share = static_cast<double>(lines) / total_lines;
      file_splits = std::max<size_t>(
          1, static_cast<size_t>(std::llround(share * target_splits)));
      file_splits = std::min(file_splits, lines);
    }
    size_t base = lines / file_splits;
    size_t extra = lines % file_splits;
    size_t begin = 0;
    for (size_t s = 0; s < file_splits; ++s) {
      size_t len = base + (s < extra ? 1 : 0);
      splits.push_back(InputSplit{i, names[i], begin, begin + len});
      begin += len;
    }
  }
  return splits;
}

}  // namespace fj::mr
