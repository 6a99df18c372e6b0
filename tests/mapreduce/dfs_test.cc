// In-memory DFS: file lifecycle, stable line storage, split computation.
#include "mapreduce/dfs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/integrity.h"

namespace fj::mr {
namespace {

TEST(DfsTest, WriteReadDelete) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("f", {"a", "b"}).ok());
  EXPECT_TRUE(dfs.Exists("f"));
  auto lines = dfs.ReadFile("f");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines.value(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(dfs.FileLines("f").value(), 2u);
  EXPECT_EQ(dfs.FileBytes("f").value(), 4u);  // "a\n" + "b\n"
  ASSERT_TRUE(dfs.DeleteFile("f").ok());
  EXPECT_FALSE(dfs.Exists("f"));
  EXPECT_EQ(dfs.ReadFile("f").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dfs.DeleteFile("f").code(), StatusCode::kNotFound);
}

TEST(DfsTest, WriteRefusesOverwrite) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("f", {"a"}).ok());
  EXPECT_EQ(dfs.WriteFile("f", {"b"}).code(), StatusCode::kAlreadyExists);
}

TEST(DfsTest, AppendCreatesAndExtends) {
  Dfs dfs;
  ASSERT_TRUE(dfs.AppendToFile("f", {"1"}).ok());
  ASSERT_TRUE(dfs.AppendToFile("f", {"2", "3"}).ok());
  EXPECT_EQ(*dfs.ReadFile("f").value(),
            (std::vector<std::string>{"1", "2", "3"}));
}

TEST(DfsTest, LinePointersStableAcrossOtherWrites) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("f", {"x"}).ok());
  const std::vector<std::string>* before = dfs.ReadFile("f").value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(dfs.WriteFile("g" + std::to_string(i), {"y"}).ok());
  }
  EXPECT_EQ(before, dfs.ReadFile("f").value());
  EXPECT_EQ((*before)[0], "x");
}

// Regression: a job may hold a ReadFile pointer while later jobs append to
// other files (the pipeline appends stage outputs while stage inputs are
// still being mapped). The pointed-to vector must stay valid and splits
// computed before a growth must stay in range afterwards.
TEST(DfsTest, ReadPointerStableWhileFilesGrow) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("stable", {"s0", "s1", "s2"}).ok());
  ASSERT_TRUE(dfs.WriteFile("growing", {"g0"}).ok());

  const std::vector<std::string>* stable = dfs.ReadFile("stable").value();
  const std::vector<std::string>* growing = dfs.ReadFile("growing").value();
  auto splits = dfs.MakeSplits({"stable"}, 2);
  ASSERT_TRUE(splits.ok());

  // Grow an unrelated file well past any small-vector capacity and create
  // enough new files to force map rebalancing if storage were not
  // pointer-stable.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(dfs.AppendToFile("growing", {"g" + std::to_string(i)}).ok());
    ASSERT_TRUE(dfs.WriteFile("extra" + std::to_string(i), {"e"}).ok());
  }

  EXPECT_EQ(stable, dfs.ReadFile("stable").value());
  EXPECT_EQ((*stable)[0], "s0");
  EXPECT_EQ((*stable)[2], "s2");
  // The documented append semantics: the pre-append pointer addresses the
  // same vector, so it observes every appended line.
  EXPECT_EQ(growing, dfs.ReadFile("growing").value());
  EXPECT_EQ(growing->size(), 201u);
  EXPECT_EQ(growing->front(), "g0");
  EXPECT_EQ(growing->back(), "g199");
  // The pre-growth splits still address exactly the original lines.
  size_t covered = 0;
  for (const auto& s : *splits) {
    EXPECT_LE(s.end_line, stable->size());
    covered += s.end_line - s.begin_line;
  }
  EXPECT_EQ(covered, 3u);
}

// Splits recomputed after growth must cover the appended lines too.
TEST(DfsTest, SplitsTrackFileGrowth) {
  Dfs dfs;
  ASSERT_TRUE(dfs.AppendToFile("f", {"a", "b"}).ok());
  auto before = dfs.MakeSplits({"f"}, 3);
  ASSERT_TRUE(before.ok());
  size_t covered_before = 0;
  for (const auto& s : *before) covered_before += s.end_line - s.begin_line;
  EXPECT_EQ(covered_before, 2u);

  ASSERT_TRUE(dfs.AppendToFile("f", std::vector<std::string>(50, "x")).ok());
  auto after = dfs.MakeSplits({"f"}, 3);
  ASSERT_TRUE(after.ok());
  size_t covered_after = 0;
  size_t expect_begin = 0;
  for (const auto& s : *after) {
    EXPECT_EQ(s.begin_line, expect_begin);
    expect_begin = s.end_line;
    covered_after += s.end_line - s.begin_line;
  }
  EXPECT_EQ(covered_after, 52u);
}

TEST(DfsTest, ListFilesSorted) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("b", {}).ok());
  ASSERT_TRUE(dfs.WriteFile("a", {}).ok());
  EXPECT_EQ(dfs.ListFiles(), (std::vector<std::string>{"a", "b"}));
  dfs.Clear();
  EXPECT_TRUE(dfs.ListFiles().empty());
}

TEST(DfsTest, SplitsCoverEveryLineExactlyOnce) {
  Dfs dfs;
  std::vector<std::string> lines(103, "l");
  ASSERT_TRUE(dfs.WriteFile("f", lines).ok());
  for (size_t target : {0u, 1u, 4u, 7u, 103u, 200u}) {
    auto splits = dfs.MakeSplits({"f"}, target);
    ASSERT_TRUE(splits.ok()) << target;
    size_t covered = 0;
    size_t expect_begin = 0;
    for (const auto& s : *splits) {
      EXPECT_EQ(s.begin_line, expect_begin);
      EXPECT_GT(s.end_line, s.begin_line);  // no empty splits
      covered += s.end_line - s.begin_line;
      expect_begin = s.end_line;
    }
    EXPECT_EQ(covered, 103u) << "target " << target;
  }
}

TEST(DfsTest, SplitsProportionalAcrossFiles) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("big", std::vector<std::string>(90, "x")).ok());
  ASSERT_TRUE(dfs.WriteFile("small", std::vector<std::string>(10, "y")).ok());
  auto splits = dfs.MakeSplits({"big", "small"}, 10);
  ASSERT_TRUE(splits.ok());
  size_t big_splits = 0, small_splits = 0;
  for (const auto& s : *splits) {
    EXPECT_EQ(s.file_name, s.file_index == 0 ? "big" : "small");
    (s.file_index == 0 ? big_splits : small_splits)++;
  }
  EXPECT_GT(big_splits, small_splits);
  EXPECT_GE(small_splits, 1u);  // non-empty files always get a split
}

TEST(DfsTest, SplitsSkipEmptyFiles) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("empty", {}).ok());
  ASSERT_TRUE(dfs.WriteFile("full", {"a"}).ok());
  auto splits = dfs.MakeSplits({"empty", "full"}, 4);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->size(), 1u);
  EXPECT_EQ((*splits)[0].file_index, 1u);
}

TEST(DfsTest, SplitsMissingFileFails) {
  Dfs dfs;
  EXPECT_EQ(dfs.MakeSplits({"nope"}, 2).status().code(),
            StatusCode::kNotFound);
}

// --- integrity metadata and atomic commits ------------------------------

TEST(DfsTest, RenameMovesContentAndChecksum) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("tmp", {"a", "b"}).ok());
  uint64_t checksum = dfs.FileChecksum("tmp").value();
  ASSERT_TRUE(dfs.RenameFile("tmp", "final").ok());
  EXPECT_FALSE(dfs.Exists("tmp"));
  EXPECT_EQ(*dfs.ReadFile("final").value(),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(dfs.FileChecksum("final").value(), checksum);
  EXPECT_TRUE(dfs.VerifyFile("final").ok());
}

TEST(DfsTest, RenameOverExistingNameFailsAndChangesNothing) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("from", {"new"}).ok());
  ASSERT_TRUE(dfs.WriteFile("to", {"old"}).ok());
  Status renamed = dfs.RenameFile("from", "to");
  EXPECT_EQ(renamed.code(), StatusCode::kAlreadyExists);
  // Both files keep their contents: a failed commit must not clobber the
  // already-published output.
  EXPECT_EQ(*dfs.ReadFile("from").value(), (std::vector<std::string>{"new"}));
  EXPECT_EQ(*dfs.ReadFile("to").value(), (std::vector<std::string>{"old"}));
}

TEST(DfsTest, RenameMissingSourceFails) {
  Dfs dfs;
  EXPECT_EQ(dfs.RenameFile("nope", "to").code(), StatusCode::kNotFound);
  EXPECT_FALSE(dfs.Exists("to"));
}

TEST(DfsTest, DeleteThenAppendStartsFresh) {
  Dfs dfs;
  ASSERT_TRUE(dfs.AppendToFile("f", {"old1", "old2"}).ok());
  const std::vector<std::string>* old_ptr = dfs.ReadFile("f").value();
  ASSERT_TRUE(dfs.DeleteFile("f").ok());
  ASSERT_TRUE(dfs.AppendToFile("f", {"new"}).ok());
  const std::vector<std::string>* new_ptr = dfs.ReadFile("f").value();
  // The recreated file is a fresh entry: old content is gone, the new
  // lines verify, and callers must re-fetch the pointer.
  EXPECT_EQ(*new_ptr, (std::vector<std::string>{"new"}));
  EXPECT_TRUE(dfs.VerifyFile("f").ok());
  (void)old_ptr;  // dangling by contract; never dereferenced
}

TEST(DfsTest, ReadPointerSurvivesRename) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("tmp", {"line0", "line1"}).ok());
  const std::vector<std::string>* reader = dfs.ReadFile("tmp").value();
  // A concurrent reader mid-scan while the producer commits: the rename
  // moves the storage, so the lines stay readable through the old pointer.
  ASSERT_TRUE(dfs.RenameFile("tmp", "final").ok());
  EXPECT_EQ((*reader)[0], "line0");
  EXPECT_EQ((*reader)[1], "line1");
  EXPECT_EQ(reader, dfs.ReadFile("final").value());
}

TEST(DfsTest, VerifyCleanFileReportsBytes) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("f", {"ab", "c"}).ok());
  auto bytes = dfs.VerifyFile("f");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), 5u);  // "ab\n" + "c\n"
}

TEST(DfsTest, CorruptByteIsDetectedByVerify) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("f", {"hello", "world"}).ok());
  ASSERT_TRUE(dfs.VerifyFile("f").ok());
  ASSERT_TRUE(dfs.CorruptByteForTest("f", 17).ok());
  auto verified = dfs.VerifyFile("f");
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kDataLoss);
  // The stored whole-file checksum still reflects the original content, so
  // a manifest holding it will not validate the corrupted file either.
  EXPECT_TRUE(dfs.FileChecksum("f").ok());
}

TEST(DfsTest, CorruptByteIsDeterministic) {
  Dfs dfs1, dfs2;
  for (Dfs* dfs : {&dfs1, &dfs2}) {
    ASSERT_TRUE(dfs->WriteFile("f", {"aaaa", "bbbb", "cccc"}).ok());
    ASSERT_TRUE(dfs->CorruptByteForTest("f", 99).ok());
  }
  EXPECT_EQ(*dfs1.ReadFile("f").value(), *dfs2.ReadFile("f").value());
  EXPECT_NE(*dfs1.ReadFile("f").value(),
            (std::vector<std::string>{"aaaa", "bbbb", "cccc"}));
}

TEST(DfsTest, CorruptByteRefusesEmptyFiles) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("f", {}).ok());
  EXPECT_EQ(dfs.CorruptByteForTest("f", 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dfs.CorruptByteForTest("nope", 1).code(), StatusCode::kNotFound);
}

TEST(DfsTest, AppendExtendsChecksumIncrementally) {
  Dfs dfs;
  ASSERT_TRUE(dfs.AppendToFile("f", {"a"}).ok());
  ASSERT_TRUE(dfs.AppendToFile("f", {"b", "c"}).ok());
  // The incrementally maintained hash must equal a from-scratch write of
  // the same content.
  Dfs fresh;
  ASSERT_TRUE(fresh.WriteFile("f", {"a", "b", "c"}).ok());
  EXPECT_EQ(dfs.FileChecksum("f").value(), fresh.FileChecksum("f").value());
  EXPECT_TRUE(dfs.VerifyFile("f").ok());
}

TEST(DfsTest, WriterLineChecksumsGiveTheSameFile) {
  // A writer that hashed its own lines (a job's reduce tasks do) produces
  // exactly the file the Dfs would have hashed itself.
  const std::vector<std::string> lines = {"alpha", "", "beta\tgamma",
                                          std::string("\xfb\x01\x00z", 4)};
  std::vector<uint64_t> checksums;
  for (const std::string& line : lines) checksums.push_back(LineChecksum(line));
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("text", lines).ok());
  ASSERT_TRUE(dfs.WriteFile("text_hashed", lines, checksums).ok());
  EXPECT_EQ(dfs.FileChecksum("text_hashed").value(),
            dfs.FileChecksum("text").value());
  EXPECT_EQ(dfs.VerifyFile("text_hashed").value(),
            dfs.VerifyFile("text").value());
  // The stored hashes still guard the bytes.
  ASSERT_TRUE(dfs.CorruptByteForTest("text_hashed", 3).ok());
  EXPECT_EQ(dfs.VerifyFile("text_hashed").status().code(),
            StatusCode::kDataLoss);
}

TEST(DfsTest, WriterChecksumCountMustMatchTheLines) {
  Dfs dfs;
  EXPECT_EQ(dfs.WriteFile("f", {"a", "b"}, {LineChecksum("a")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(dfs.Exists("f"));
}

TEST(DfsTest, WrongWriterChecksumIsCaughtInDebugBuilds) {
  Dfs dfs;
  const Status written =
      dfs.WriteFile("f", {"a", "b"}, {LineChecksum("a"), LineChecksum("a")});
#ifdef NDEBUG
  // Optimized builds trust the writer; the wrong hash is stored, so the
  // file fails verification instead.
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(dfs.VerifyFile("f").status().code(), StatusCode::kDataLoss);
#else
  EXPECT_EQ(written.code(), StatusCode::kInternal);
  EXPECT_FALSE(dfs.Exists("f"));
#endif
}

}  // namespace
}  // namespace fj::mr
